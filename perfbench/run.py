"""jumplab benchmark.

    python3 perfbench/run.py --workload harnack-1d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check [--smoke]

Run from the root of a jumplab checkout; the program is imported from its
``src/``.  A run measures one workload for ``--seconds``: it repeats whole
passes while the next one fits in that time, and runs at least one.  It checks
every output and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs one pass with every module wrapped and
reports the per-module metrics instead.  Each run also writes a result file
with the environment block under ``.perfbench-out/results/``.

End-to-end timings are medians in reference seconds: each timed section is
bracketed by a fixed numpy probe and scaled by how slow the probe ran around
it, which takes the shared host's drifting speed out of the figures (see
``hostspeed.py``).  The report and the result file also give the raw wall-time
medians.

``--check`` runs every workload untraced and prints the end-to-end metrics
with their error rate, runs all eight README command lines (including the
ones the timed cli-presets workload leaves out), and runs each workload traced
twice at one seed to show that outputs and counts repeat exactly and what the
tracing costs.  It exits 1 if any check failed, the README command lines
included.  ``--smoke`` shrinks every workload for a quick test.
"""
from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("harnack-1d", "holder-2d", "cli-presets")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "assemble_s": "s",
    "members_per_s": "1/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    ap.add_argument("--check", action="store_true", help="audit report over all workloads")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.check and args.workload is None:
        ap.error("--workload is required unless --check is given")
    return args


def make_workload(name, seed, smoke, tracer=None, work_dir=None, commands=None):
    import workloads

    if name == "cli-presets":
        # the all-README pass reports the eight commands once each
        extra = {"commands": commands, "members": workloads.README_MEMBERS} if commands else {}
        return workloads.CliPresets(seed, smoke, tracer, work_dir, **extra)
    return workloads.WORKLOADS[name](seed, smoke, tracer)


def setup_samples(name, seed, smoke, w, rec):
    """Time fresh processes that do the workload's set-up and exit."""
    if name == "cli-presets":
        cmd = [sys.executable, "-m", "jumplab.cli", "--help"]
    else:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    for _ in range(SETUP_PROBES):
        with w.section(in_process=False) as sec:
            subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        rec.timing("setup_s", sec)


def run_workload(name, seed, seconds, trace, smoke, import_s, commands=None):
    """One run; returns a dict with the record, metrics and environment."""
    import envinfo
    import workloads
    from hostspeed import REF_NOMINAL_S, HostSpeed

    work_dir = OUT / f"{name}-s{seed}-t{trace}-{os.getpid()}"
    rec = workloads.Record()
    tracer = None
    if trace:
        import layers
        from tracing import Tracer

        tracer = Tracer()
        tracer.values["cli.import_s"] = import_s
    w = make_workload(name, seed, smoke, tracer, work_dir, commands)
    if not trace:
        w.host = HostSpeed()
        setup_samples(name, seed, smoke, w, rec)
    w.prepare()
    try:
        if trace:
            patcher = layers.instrument(tracer)
            try:
                with tracer.span("trace.root"):
                    w.run_pass(rec)
            finally:
                patcher.undo()
            rec.passes = 1
        else:
            # closed loop: the next pass starts only if it can end within the run
            start = time.perf_counter()
            while True:
                t0, probed = time.perf_counter(), w.host.probe_s
                w.run_pass(rec)
                rec.passes += 1
                now = time.perf_counter()
                # with checks, without probes: what a traced root spans
                rec.sample("whole_pass_s", now - t0 - (w.host.probe_s - probed))
                if now - start + (now - t0) > seconds:
                    break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics = layers.per_layer_metrics(tracer, commands or workloads.CLI_PRESETS)
        units = {**layers.PER_LAYER, **layers.EXTRA_UNITS}
        if commands is None:
            metrics = {k: metrics[k] for k in layers.PER_LAYER}
        sample_counts = {}
    else:
        timed = ("setup_s", "assemble_s", "members_per_s", "pass_s")
        metrics = {**{k: statistics.median(rec.samples[k]) for k in timed},
                   "peak_rss_mb": w.peak_rss_mb()}
        units = END_TO_END
        sample_counts = {"peak_rss_mb": 1, **{k: len(rec.samples[k]) for k in timed}}
    result = {
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke, "passes": rec.passes,
        "correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
        "error_rate": rec.failed / max(rec.attempted, 1),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "sample_counts": sample_counts,
        "samples": rec.samples,
        "problems": rec.problems,
        "output_digest": rec.digest(),
        "environment": envinfo.environment(ROOT, BLAS_THREADS, w.environment()),
    }
    if tracer is not None:
        result["self_time_gap_s"] = tracer.self_time_gap()
    else:
        result["host_speed"] = {
            "reference_nominal_s": REF_NOMINAL_S, "probe_s": w.host.probe_times(),
            "raw_samples": rec.raw_samples,
            "raw_medians": {k: statistics.median(v) for k, v in rec.raw_samples.items()}}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = "-smoke" if smoke else ""
    (results_dir / f"{name}-seed{seed}-trace{trace}{tag}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def report(res):
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"{res['workload']} seed {res['seed']} trace {res['trace']}: {res['passes']} pass(es), "
             f"{res['failed']} of {res['attempted']} operations failed"]
    raw = res.get("host_speed", {}).get("raw_medians", {})
    for k, m in res["metrics"].items():
        n = res["sample_counts"].get(k)
        lines.append(f"  {k:34s} {m['value']:.6g} {m['unit']}" + (f"  (n={n})" if n else "")
                     + (f"  raw wall-clock median {raw[k]:.6g}" if k in raw else ""))
    if not res["trace"]:
        lines.append(f"  {'error_rate':34s} {res['failed']}/{res['attempted']} fraction")
    lines.extend(f"  FAILED {p}" for p in res["problems"])
    return "\n".join(lines)


def run_check(args, import_s) -> int:
    """The audit report: metrics, all README commands, determinism, overhead."""
    import layers
    import workloads

    ok = True
    untraced = {}
    for name in WORKLOAD_NAMES:
        untraced[name] = res = run_workload(name, args.seed, args.seconds, 0, args.smoke, import_s)
        print(report(res), flush=True)
        ok &= res["correct"]
    readme = tuple(workloads.README_COMMANDS)
    res = run_workload("cli-presets", args.seed, 0, 0, args.smoke, import_s, readme)
    print("all README command lines:", report(res).split("\n", 1)[1], sep="\n", flush=True)
    ok &= res["correct"]
    counted = [k for k, u in {**layers.PER_LAYER, **layers.EXTRA_UNITS}.items()
               if u in ("count", "flop")]
    for name, commands in [(n, None) for n in WORKLOAD_NAMES] + [("cli-presets", readme)]:
        a, b = (run_workload(name, args.seed, 0, 1, args.smoke, import_s, commands)
                for _ in range(2))
        same_out = a["output_digest"] == b["output_digest"]
        diff = [k for k in counted if k in a["metrics"]
                and a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        label = name if commands is None else "all README command lines"
        print(f"traced {label}:")
        print(report(a).split("\n", 1)[1])
        print(f"  outputs repeat bitwise: {same_out}; counts repeat exactly: {not diff} {diff or ''}")
        print(f"  self times sum to the root span within {a['self_time_gap_s']:.2e} s")
        if commands is None:
            base = statistics.median(untraced[name]["samples"]["whole_pass_s"])
            traced = a["metrics"]["trace.root_s"]["value"]
            note = " (traced runs the commands in-process)" if name == "cli-presets" else ""
            print(f"  tracing overhead: traced pass {traced:.4g} s - untraced pass {base:.4g} s "
                  f"= {traced - base:+.4g} s{note}")
        ok &= same_out and not diff and (a["correct"] or commands is not None)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "jumplab" / "__init__.py").is_file():
        print(f"perfbench: no jumplab sources at {SRC}; run from a jumplab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    # One CPU for this process and every child, so that the host speed probes
    # run where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.setup_probe:
        make_workload(args.workload, args.seed, args.smoke).prepare()
        return 0
    import_s = None
    if args.trace or args.check:
        # first import of the CLI in this process: the traced run's cli.import_s
        t0 = time.perf_counter()
        importlib.import_module("jumplab.cli")
        import_s = time.perf_counter() - t0
    if args.check:
        return run_check(args, import_s)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke, import_s)
    print(report(res))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
