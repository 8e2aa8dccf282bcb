"""The benchmark's own tests, at smoke size.

    python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
from jumplab import Cone, assemble, build_grid, make_cone_kernel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = result_line(run("--workload", workload, "--seed", "5", "--seconds", "1",
                          "--trace", trace, "--smoke"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())


def test_check_report_self_times_determinism_and_overhead():
    proc = run("--check", "--smoke", "--seconds", "1")
    text = proc.stdout
    for name in WORKLOADS:
        assert f"traced {name}:" in text
    assert text.count("error_rate") == len(WORKLOADS) + 1
    assert "all README command lines:" in text
    assert text.count("tracing overhead: traced pass") == len(WORKLOADS)
    assert text.count("outputs repeat bitwise: True; counts repeat exactly: True") == \
        len(WORKLOADS) + 1
    gaps = [float(line.split("within ")[1].split()[0]) for line in text.splitlines()
            if "self times sum to the root span" in line]
    assert len(gaps) == len(WORKLOADS) + 1 and max(gaps) < 1e-6
    results = ROOT / ".perfbench-out" / "results"
    env = json.loads((results / "holder-2d-seed1-trace0-smoke.json").read_text())["environment"]
    for key in ("python", "numpy", "scipy", "blas", "blas_threads_pinned", "pinned_env",
                "nproc", "git_commit"):
        assert key in env
    assert env["workload"]["dense_nxn_bytes_computed"] == 8 * env["workload"]["N"] ** 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_strict_json_and_csv_checks(tmp_path):
    (tmp_path / "good.json").write_text('{"a": 1.5}')
    (tmp_path / "inf.json").write_text('{"theta": Infinity}')
    (tmp_path / "nan.json").write_text('[NaN]')
    (tmp_path / "good.csv").write_text("run,c\n0,1.0\n")
    (tmp_path / "ragged.csv").write_text("run,c\n0\n")
    (tmp_path / "empty.csv").write_text("")
    size, problems = checks.check_artifacts([tmp_path])
    assert size > 0
    assert sorted(p.split(":")[0] for p in problems) == \
        ["empty.csv", "inf.json", "nan.json", "ragged.csv"]


def test_assembly_and_member_checks_count_failures():
    kernel = make_cone_kernel(1.5, 0.5, Cone((1.0,), math.pi / 4), None, d=1)
    form = assemble(kernel, build_grid(1, 2.0, 1 / 8, {"type": "box", "halfwidth": 1.5}))
    assert checks.check_assembly(form)[1] == []
    form.A_a[0, 1] += 1e-3
    problems = checks.check_assembly(form)[1]
    assert any("A_s + A_a" in p for p in problems)
    assert any("antisym" in p for p in problems)
    assert checks.check_quotient(math.inf) and checks.check_quotient(0.0)
    assert checks.check_holder(None, False) and not checks.check_holder(None, True)
    assert checks.check_run({"finite": True, "max_residual": 1e-9})
    assert checks.check_run(None)


def test_host_speed_section_leaves_its_probes_out(monkeypatch):
    monkeypatch.setattr(hostspeed, "PROBE_PERIOD_S", 0.05)
    handler = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed()
    with host.section() as sec:
        p0, t0 = host.probe_s, time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            pass
        p1, elapsed = host.probe_s, time.perf_counter() - t0
    assert p1 > p0 and len(host.points) >= 4       # probed before, during and after
    assert sec["wall"] == pytest.approx(elapsed - (p1 - p0), abs=0.01)
    times = [dt for p in host.points for dt in p[2]]
    assert sec["scale"] == pytest.approx(statistics.median(times) / hostspeed.REF_NOMINAL_S)
    assert signal.getsignal(signal.SIGALRM) is handler
