"""The benchmark workloads: what each one runs, times and checks.

Every workload is one closed-loop client in one process: it runs one pass,
checks the outputs, and starts the next pass only after that, while the next
pass fits in the run's time (at least one pass).  Module functions are looked
up at call time (``jumplab.assemble``, ``estimates.harnack_ensemble``) so that
the traced run's wrappers see every call.

- harnack-1d: 1D cone, N=256 (N_I=192); 2-member Harnack ensembles of 1448
  implicit-Euler steps per member.  Stepping is bound by Python overhead and
  assembly is negligible.
- holder-2d: 2D double cone, N=4096 (N_I=1804); the default-quadrature
  assembly, then a Hoelder ensemble of 512 steps per member, bound by memory
  traffic over the 134 MB form matrices.
- cli-presets: six README command lines on their builtin presets, each in a
  fresh process (in-process through ``jumplab.cli.main`` when traced).
  Set-up, start-up, import and artifact writing weigh here.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import jumplab
from jumplab import estimates
from jumplab.estimates import Cylinder
from jumplab.quadrature import QuadSpec

import checks
from tracing import Patcher

# README command lines; "{seed}" is replaced by the benchmark seed and
# "{members}" by the ensemble size: the README's 50 when --check runs all eight
# lines, 5 in the timed cli-presets workload so that a run holds several
# passes.  check-kernel (Infinity in report.json) and hoelder (exit 3) fail at
# the measured commit, so the timed workload runs the other six and --check
# reports all eight.
README_COMMANDS = {
    "check-kernel": ["check-kernel", "--assumption", "K1", "--out", "runs/k1"],
    "harnack": ["harnack", "--ensemble", "{members}", "--seed", "{seed}", "--out", "runs/harnack"],
    "hoelder": ["hoelder", "--out", "runs/hoelder"],
    "caccioppoli": ["caccioppoli", "--out", "runs/cacc"],
    "algebra-tests": ["algebra-tests", "--out", "runs/algebra"],
    "mosco": ["mosco", "--alphas", "1.5,1.8,1.9,1.95", "--out", "runs/mosco"],
    "assemble": ["assemble", "--dump-form", "runs/form.csv", "--out", "runs/asm"],
    "solve": ["solve", "--out", "runs/solve"],
}
CLI_PRESETS = ("harnack", "caccioppoli", "algebra-tests", "mosco", "assemble", "solve")
README_MEMBERS = 50
TIMED_MEMBERS = 5
# What ``python -m jumplab.cli ARGS`` does, plus the child's own peak resident
# set (VmHWM) as its last stderr line.  getrusage cannot give it: a child's
# ru_maxrss starts at the peak of the benchmark process it was spawned from.
_CLI_MAIN = """import runpy, sys
try:
    runpy.run_module("jumplab.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(next(l for l in open("/proc/self/status") if l.startswith("VmHWM")))
"""


@dataclass
class Record:
    """Samples, operation counts and problems of one run."""

    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    results: list = field(default_factory=list)     # outputs compared for determinism
    passes: int = 0

    raw_samples: dict = field(default_factory=dict)     # wall-clock values, unscaled

    def sample(self, name, value, raw=None):
        """One sample in reference units, and its raw value (the same if unscaled)."""
        self.samples.setdefault(name, []).append(float(value))
        self.raw_samples.setdefault(name, []).append(float(value if raw is None else raw))

    def timing(self, name, sec):
        """A wall time from a ``section``, in reference seconds."""
        self.sample(name, sec["wall"] / sec["scale"], sec["wall"])

    def operation(self, what, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def digest(self) -> str:
        h = hashlib.sha256()
        for item in self.results:
            for chunk in (item if item and isinstance(item[0], bytes)
                          else [np.asarray(item, dtype=float).tobytes()]):
                h.update(chunk)
        return h.hexdigest()


def _capture_solutions(patcher, store):
    """Record the health of every Solution the ensembles compute.

    The ensembles return only quotients or fits; the member checks need the
    step residuals and the state, which ``solve_parabolic`` returns.
    """
    inner = estimates.solve_parabolic

    def capture(problem):
        sol = inner(problem)
        store.append(checks.solution_health(sol))
        return sol

    patcher.set(estimates, "solve_parabolic", capture)


class _Workload:
    tracer = None
    host = None             # hostspeed.HostSpeed of an untraced run
    host_sensitivity = 1.0  # in-process sections slow as the probe ** this

    def section(self, in_process=True):
        """A timed block: probed for host speed in an untraced run."""
        if not self.host:
            return _unscaled_section()
        return self.host.section(in_process, self.host_sensitivity if in_process else 1.0)

    def checking(self):
        """Span for the benchmark's own checks in a traced run."""
        return self.tracer.span("bench.check") if self.tracer else contextlib.nullcontext()

    def prepare(self):
        """Set-up work beyond construction that counts towards setup_s."""


@contextlib.contextmanager
def _unscaled_section():
    out = {}
    t0 = time.perf_counter()
    yield out
    out["wall"], out["scale"] = time.perf_counter() - t0, 1.0


class EnsembleWorkload(_Workload):
    """Assemble a form, then run one ensemble on it, per pass."""

    sizes: dict = {}
    assemble_reps = 1

    def __init__(self, seed: int, smoke: bool, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.size = self.sizes["smoke" if smoke else "full"]
        self.kernel, self.grid = self.build()
        self.cyl = Cylinder(0.0, 0.5, 1.5, (0.0,) * self.grid.d)
        self.quad = self.size.get("quad")

    def environment(self) -> dict:
        n, n_i = self.grid.n_nodes, int(self.grid.interior.sum())
        return {"N": n, "N_I": n_i, "dense_nxn_bytes_computed": 8 * n * n,
                "form_bytes_computed": 3 * 8 * n * n,
                "lu_factor_flops_computed": 2 * n_i ** 3 / 3,
                "lu_solve_flops_computed": 2 * n_i ** 2}

    def run_pass(self, rec: Record):
        healths = []
        patcher = Patcher()
        _capture_solutions(patcher, healths)
        assemblies = []
        for _ in range(self.assemble_reps):
            with self.section() as asm:
                form = jumplab.assemble(self.kernel, self.grid, quad=self.quad)
            assemblies.append(asm)
            with self.checking():
                _, problems = checks.check_assembly(form)
            rec.operation("assembly", problems)
        with self.section() as ens:
            out = self.ensemble(form)
        patcher.undo()
        values, member_problems = self.member_checks(out)
        if len(healths) != len(values):
            member_problems = [p + [f"{len(healths)} Solutions for {len(values)} members"]
                               for p in member_problems]
        passed = 0
        for i, probs in enumerate(member_problems):
            health = healths[i] if i < len(healths) else None
            passed += rec.operation(f"member {i}", probs + checks.check_run(health))
        if rec.results and rec.results[0] != values:
            rec.operation("determinism", ["ensemble outputs differ between passes at one seed"])
        rec.results.append(values)
        for asm in assemblies:
            rec.timing("assemble_s", asm)
        rate = passed / ens["wall"]
        rec.sample("members_per_s", rate * ens["scale"], rate)
        last = assemblies[-1]                           # one assembly + the ensemble
        rec.sample("pass_s", last["wall"] / last["scale"] + ens["wall"] / ens["scale"],
                   last["wall"] + ens["wall"])

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Harnack1D(EnsembleWorkload):
    assemble_reps = 4       # one 1D assembly is ~0.02 s: take several samples per pass
    sizes = {"full": {"h": 1 / 64, "members": 2}, "smoke": {"h": 1 / 16, "members": 2}}

    def build(self):
        kernel = jumplab.make_cone_kernel(1.5, 0.5, jumplab.Cone((1.0,), math.pi / 4), None, d=1)
        grid = jumplab.build_grid(1, 2.0, self.size["h"], {"type": "box", "halfwidth": 1.5})
        return kernel, grid

    def prepare(self):
        # the 0.03 s assembly counts as set-up for this workload
        jumplab.assemble(self.kernel, self.grid)

    def ensemble(self, form):
        return estimates.harnack_ensemble(form, self.cyl, self.size["members"], self.seed)

    def member_checks(self, out):
        q = list(out["c_emp"])
        return q, [checks.check_quotient(v) for v in q]


class Holder2D(EnsembleWorkload):
    # Its passes are bound by memory traffic over 134 MB arrays, which the
    # host's slow spells slow less than the probe: with the probe 1.49x faster
    # in one 10-run set than in another, the raw passes were 1.19x faster
    # (1.49 ** 0.44), so full scaling over-corrected by a quarter.  Its set-up,
    # fresh processes like everyone's, is scaled in full.
    host_sensitivity = 0.5
    sizes = {"full": {"X": 1.0, "h": 1 / 32, "radius": 0.75, "members": 1},
             "smoke": {"X": 0.5, "h": 1 / 32, "radius": 0.4, "members": 1,
                       "quad": QuadSpec(n_ang=16, n_panels=10)}}

    def build(self):
        C = jumplab.Cone((1.0, 0.0), math.pi / 4)
        D = jumplab.Cone((0.0, 1.0), math.pi / 8, double=True)
        kernel = jumplab.make_cone_kernel(1.5, 0.5, C, D, d=2)
        grid = jumplab.build_grid(2, self.size["X"], self.size["h"],
                                  {"type": "ball", "radius": self.size["radius"]})
        return kernel, grid

    def ensemble(self, form):
        return estimates.holder_ensemble(form, self.cyl, self.size["members"], self.seed)

    def member_checks(self, out):
        fits = [math.nan if g is None else g for g in out["gamma_fit"]]
        return fits, [checks.check_holder(g, f) for g, f in zip(out["gamma_fit"], out["flat"])]


class CliPresets(_Workload):
    """README command lines, each in a fresh process (in-process when traced)."""

    def __init__(self, seed: int, smoke: bool, tracer=None, work_dir: Path = Path("."),
                 commands=CLI_PRESETS, members=TIMED_MEMBERS):
        self.seed = seed
        self.members = 4 if smoke else members
        self.tracer = tracer
        self.work_dir = work_dir
        self.commands = commands
        self.child_peak_kb = 0

    def environment(self) -> dict:
        return {"commands": [" ".join(self.argv(c, Path("."))) for c in self.commands]}

    def argv(self, command, root: Path):
        out = []
        for a in README_COMMANDS[command]:
            a = a.format(seed=self.seed, members=self.members)
            out.append(str(root / a) if a.startswith("runs/") else a)
        return out

    def run_pass(self, rec: Record):
        pass_dir = self.work_dir / f"pass{rec.passes}"
        pass_dir.mkdir(parents=True, exist_ok=True)
        total = raw_total = 0.0
        for command in self.commands:
            argv = self.argv(command, pass_dir)
            sec, code, err = self._run(command, argv, pass_dir)
            total += sec["wall"] / sec["scale"]
            raw_total += sec["wall"]
            outputs = [Path(a) for a in argv if a.startswith(str(pass_dir))]
            with self.checking():
                size, problems = checks.check_artifacts(outputs)
                if code != 0:
                    problems.insert(0, f"exit code {code} {err}".rstrip())
                elif not (outputs[-1] / "manifest.json").is_file():
                    problems.append("no manifest.json")
                if command == "harnack" and not problems:
                    passed = _harnack_members(outputs[-1] / "harnack.csv")
                    if passed != self.members:
                        problems.append(f"{passed} of {self.members} quotients finite and > 0")
            rec.operation(command, problems)
            if self.tracer is not None:
                t = self.tracer.values
                t["cli.artifact_bytes"] = t.get("cli.artifact_bytes", 0) + size
                t["cli.failed_commands"] = t.get("cli.failed_commands", 0) + bool(problems)
            if command == "harnack":
                rate = (0 if problems else passed) / sec["wall"]
                rec.sample("members_per_s", rate * sec["scale"], rate)
            if command == "assemble":
                rec.timing("assemble_s", sec)
        rec.sample("pass_s", total, raw_total)
        with self.checking():
            csv_bytes = [p.read_bytes() for p in sorted(pass_dir.rglob("*.csv"))]
            if rec.results and rec.results[0] != csv_bytes:
                rec.operation("determinism", ["CSV artifacts differ between passes at one seed"])
            rec.results.append(csv_bytes)
            shutil.rmtree(pass_dir)

    def _run(self, command, argv, cwd):
        """Timed section, exit code and last stderr line of one command."""
        if self.tracer is not None:
            from jumplab import cli

            with self.tracer.span(f"cli.{command}") as sp, \
                    contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            return {"wall": sp.duration, "scale": 1.0}, code, ""
        with self.section(in_process=False) as sec:
            proc = subprocess.run([sys.executable, "-c", _CLI_MAIN, *argv], cwd=cwd,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        *err, hwm = proc.stderr.strip().splitlines()
        self.child_peak_kb = max(self.child_peak_kb, int(hwm.split()[1]))
        return sec, proc.returncode, (err or [""])[-1]

    def peak_rss_mb(self) -> float:
        return self.child_peak_kb / 1024.0


def _harnack_members(path: Path) -> int:
    """Rows of harnack.csv whose quotient is finite and positive."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return sum(not checks.check_quotient(float(r["c_emp"])) for r in rows)


WORKLOADS = {"harnack-1d": Harnack1D, "holder-2d": Holder2D, "cli-presets": CliPresets}

