"""Scenario runner: declarative JSON configs in, reproducible artifacts out.

Every run writes manifest.json (the config as run: file or preset, flags
applied; package version, harness, kernel hash; the environment block: python,
numpy, scipy and BLAS versions, the BLAS thread variables and the CPU count;
for harnack and hoelder the health block, each member's max step residual;
the resolution block: h, N, N_I, dt and the form's quadrature, null where the
subcommand has none),
report.json, per-harness CSV tables and a short human-readable summary into
the output directory.
``run_scenario`` is the one place that builds the inputs and writes the
output: it builds the kernel and grid, assembles the form once for the runners
that need one, and writes every artifact.  A runner computes only: it returns
(summary, report, tables) and opens no file.  Fixed seed and config give
byte-identical artifacts.  ``_RUNNERS`` holds one row per command; a config key
it does not read exits 2, and its flags are those of the keys it reads.
Exit codes: 2 for config errors (with a field path, before any output or
assembly; a harnack or hoelder cylinder too small for its grid is one),
3 for numerical failures.

Start-up loads nothing numerical.  numpy and the package's ``algebra``,
``assumptions``, ``discretize``, ``estimates``, ``kernels``, ``mosco`` and
``solve`` are lazy modules here (``_lazy.lazy_module``), their functions named
at call time (``kernels.kernel_from_config``): each loads on its first use, so
a command compiles only the package code it runs.  Argument parsing, reading
the config, ``_refuse_non_finite`` and ``_check`` (a walker over the JSON
Schema keywords ``SCHEMA`` uses) all finish before numpy loads: ``--help``, a
usage error and a config the schema refuses never import it.  scipy's compiled
routines (``_lapack``: LAPACK and ``gamma``, loaded by file path) load on the
first factorisation, eigenvalue pencil or stable-kernel normalisation; no
command imports a scipy package.
"""
from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import math
import operator
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import __version__
from ._lazy import lazy_module, scipy_path

np = lazy_module("numpy")
algebra = lazy_module("jumplab.algebra")
assumptions = lazy_module("jumplab.assumptions")
discretize = lazy_module("jumplab.discretize")
estimates = lazy_module("jumplab.estimates")
kernels = lazy_module("jumplab.kernels")
mosco = lazy_module("jumplab.mosco")
solve = lazy_module("jumplab.solve")

INF = float("inf")


# --- check-kernel assumptions ----------------------------------------------
# name -> (run_scenario assembles the form for it, kernel fit tests, check).
# A fit test takes the kernel, the name and the harness and raises a
# ConfigError if the check or a harness number does not fit the kernel;
# check-kernel's prepare (_ball) runs them before any output.  A check takes
# the namespace of _run_check_kernel, reads the kernel run_scenario built
# (never config["kernel"]) and returns the report fields after "assumption".


def _family(family: str):
    def fits(kernel, name: str, harness):
        if kernel.spec.family != family:
            raise ConfigError(f"$['kernel']['family']: {name} needs a {family} kernel, "
                              f"not {kernel.spec.family!r}")
    return fits


def _alpha_below_d(kernel, name: str, harness):
    if kernel.alpha >= kernel.d:
        raise ConfigError(f"$['kernel']['alpha']: {name} needs alpha < d = {kernel.d}")


def _above(key: str, words: str, bound):
    """Fit test: the exponent harness[key] (absent: passes) exceeds bound(kernel)."""
    def fits(kernel, name: str, harness):
        value, limit = _exp(harness.get(key)), bound(kernel)
        if value <= limit:
            raise ConfigError(f"$['harness'][{key!r}]: {value!r} is not above {words} = "
                              f"{limit!r}")
    return fits


def _k1(c, profile):
    J = kernels.make_stable_kernel(c.kernel.d, c.kernel.alpha)
    return profile(c.kernel, J, c.ball, c.theta, grid=c.grid).to_dict()


_ASSUMPTIONS = {
    "K1": (False, (), lambda c: _k1(c, assumptions.k1_profile)),
    "K1glob": (False, (), lambda c: _k1(c, assumptions.k1_glob_profile)),
    # the class bound of the declared lam, Lam and the kernel's own sup |K_a| / K_s
    "K2": (False, (_family("coefficient"),), lambda c: {
        "D": assumptions.k2_coefficient_D(c.kernel.lam, c.kernel.Lam),
        "D_lattice": assumptions.k2_lattice_D(c.kernel, c.ball, grid=c.grid)}),
    "Cutoff": (False, (), lambda c: assumptions.cutoff_sup(
        c.kernel, float(c.harness.get("zeta", c.ball.r / 2)), c.ball, grid=c.grid)),
    "Poinc": (True, (), lambda c: assumptions.poincare_constant(c.form, c.ball)),
    "Sob": (True, (_alpha_below_d,), lambda c: assumptions.sobolev_ratio(
        c.form, c.ball, float(c.harness.get("rho", c.ball.r / 2)),
        rng=kernels.philox_stream(int(c.harness.get("seed", 0)), 0))),
    "Tail": (False, (), lambda c: assumptions.tail_sup(
        c.kernel, c.ball, float(c.harness.get("A", 2.0)), grid=c.grid)),
    "CP": (False, (_above("theta_exp", "d/alpha", lambda k: k.d / k.alpha),),
           lambda c: assumptions.cp_check(c.kernel.d, c.kernel.alpha, c.theta,
                                          _exp(c.harness.get("mu", "inf")))),
    "suffK1": (False, (_family("drift"), _above("gamma", "alpha/2", lambda k: k.alpha / 2)),
               lambda c: assumptions.suffK1_check(
        c.kernel.V, c.ball, c.theta, c.harness.get("gamma", 1.0), c.kernel.alpha,
        grid=c.grid).to_dict()),
    "coercivity": (True, (), lambda c: assumptions.coercivity_ratio(c.form, c.ball)),
    "good-set": (False, (), lambda c: assumptions.good_set_fraction(
        c.kernel, c.ball, float(c.harness.get("D", 0.5)), grid=c.grid)),
    "summary": (False, (), lambda c: {"K1": _k1(c, assumptions.k1_profile),
                                        "good_set": _ASSUMPTIONS["good-set"][2](c),
                                        "tail": _ASSUMPTIONS["Tail"][2](c)}),
}


# a cone of the cone kernel: the two keys kernel_from_config reads (Cone
# checks the axis)
_CONE = {"type": "object", "properties": {"axis": {}, "half_angle": {"type": "number"}},
         "required": ["axis", "half_angle"], "additionalProperties": False}

SCHEMA = {
    "type": "object",
    "properties": {
        "kernel": {
            "type": "object",
            "properties": {
                "family": {"enum": ["stable", "coefficient", "drift", "cone"]},
                "d": {"type": "integer", "minimum": 1, "maximum": 2},
                "alpha": {"type": "number", "exclusiveMinimum": 0,
                          "exclusiveMaximum": 2},
                "beta": {"type": "number"},
                "lam": {"type": "number"},
                "Lam": {"type": "number"},
                "L": {"type": "number"},
                "coeff": {"type": "number"},
                "g": {"type": ["string", "object"]},
                "V": {"type": ["string", "object"]},
                "cone": _CONE,
                "double_cone": {**_CONE, "type": ["object", "null"]},
                "j": {"type": ["number", "string", "object"]},
            },
            "required": ["family", "d", "alpha"],
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "d": {"type": "integer"},
                "X": {"type": "number", "exclusiveMinimum": 0},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "omega": {
                    "type": "object",
                    "properties": {
                        "type": {"enum": ["box", "ball"]},
                        "halfwidth": {"type": "number"},
                        "radius": {"type": "number"},
                        "center": {"type": "array", "items": {"type": "number"}},
                    },
                    "additionalProperties": False,
                },
            },
            "required": ["d", "X", "h"],
            "additionalProperties": False,
        },
        "problem": {
            "type": "object",
            "properties": {
                "variant": {"enum": ["primal", "dual", "dual_ext"]},
                "theta": {"type": "number", "minimum": 0.5, "maximum": 1.0},
                "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "exterior": {"type": "number"},
                "d_const": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "harness": {
            "type": "object",
            "properties": {
                "type": {"enum": ["check-kernel", "assemble", "solve", "harnack",
                                  "hoelder", "caccioppoli", "algebra-tests",
                                  "mosco"]},
                "assumption": {"enum": list(_ASSUMPTIONS)},
                "R": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "center": {"type": "array", "items": {"type": "number"}},
                "t0": {"type": "number"},
                "ensemble": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                # the kernel's bounds (CP's theta, suffK1's gamma) are fit tests
                "theta_exp": {"type": ["number", "string"], "exclusiveMinimum": 0,
                              "pattern": "^inf$"},
                "mu": {"type": ["number", "string"], "exclusiveMinimum": 1, "pattern": "^inf$"},
                "A": {"type": "number", "exclusiveMinimum": 0},
                "zeta": {"type": "number", "exclusiveMinimum": 0},
                "D": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "rho": {"type": "number", "exclusiveMinimum": 0},
                "gamma": {"type": "number", "maximum": 1},
                "alphas": {"type": "array", "minItems": 1, "uniqueItems": True,
                           "items": {"type": "number", "exclusiveMinimum": 0,
                                     "exclusiveMaximum": 2}},
                "delta": {"type": "number", "exclusiveMinimum": 0},
                "lam_resolvent": {"type": "number", "exclusiveMinimum": 0},
                "p_list": {"type": "array", "minItems": 1, "uniqueItems": True,
                           "items": {"type": "number", "exclusiveMinimum": 0}},
                "eps": {"type": "number", "minimum": 0},
                "samples": {"type": "integer", "minimum": 1},
                "dump_form": {"type": "string"},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
    },
    "required": ["harness"],
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


# (keyword, failing comparison, message) of the numeric bounds, as JSON Schema words them
_BOUNDS = (
    ("minimum", operator.lt, "less than the minimum of"),
    ("maximum", operator.gt, "greater than the maximum of"),
    ("exclusiveMinimum", operator.le, "less than or equal to the minimum of"),
    ("exclusiveMaximum", operator.ge, "greater than or equal to the maximum of"),
)
_TYPES = {"object": dict, "array": list, "string": str, "null": type(None)}


def _is_type(value, name: str) -> bool:
    """JSON Schema types: a bool is no number, and 1.0 is an integer."""
    if name in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return name == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, _TYPES[name])


def _same(a, b) -> bool:
    """JSON Schema equality of enum values and array items: a bool is no
    number, and a value is itself (a JSON NaN too, which json parses to one
    object)."""
    return a is b or (a == b and isinstance(a, bool) == isinstance(b, bool))


def _check(value, schema: dict, path: tuple = ()):
    """Raise a ConfigError at the first place where value breaks schema.

    Covers the keywords SCHEMA uses: type, enum, the four numeric bounds,
    pattern, required, properties, additionalProperties (false only),
    minItems, uniqueItems and items.
    """
    where = "$" + "".join(f"[{p!r}]" for p in path)
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(value, t) for t in types):
        raise ConfigError(f"{where}: {value!r} is not of type {', '.join(map(repr, types))}")
    enum = schema.get("enum")
    if enum is not None and not any(_same(value, e) for e in enum):
        raise ConfigError(f"{where}: {value!r} is not one of {enum!r}")
    if isinstance(value, str) and not re.search(schema.get("pattern", ""), value):
        raise ConfigError(f"{where}: {value!r} does not match {schema['pattern']!r}")
    if _is_type(value, "number"):
        for key, fails, words in _BOUNDS:
            if key in schema and fails(value, schema[key]):
                raise ConfigError(f"{where}: {value!r} is {words} {schema[key]!r}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigError(f"{where}: {key!r} is a required property")
        extra = sorted(set(value) - set(schema.get("properties", {})))
        if extra and schema.get("additionalProperties") is False:
            raise ConfigError(f"{where}: Additional properties are not allowed "
                              f"({', '.join(map(repr, extra))} "
                              f"{'was' if len(extra) == 1 else 'were'} unexpected)")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, path + (key,))
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):     # SCHEMA's minItems are all 1
            raise ConfigError(f"{where}: {value!r} should be non-empty")
        if schema.get("uniqueItems") and any(_same(a, b) for i, a in enumerate(value)
                                             for b in value[i + 1:]):
            raise ConfigError(f"{where}: {value!r} has non-unique elements")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _check(item, schema["items"], path + (i,))


def _validate(config: dict) -> dict:
    _check(config, SCHEMA)
    kind = config["harness"]["type"]
    for section in ("harness", "problem"):      # the keys of each that the command reads
        unread = sorted(set(config.get(section, ())) - {"type"} - getattr(_RUNNERS[kind], section))
        if unread:
            raise ConfigError(f"$[{section!r}]: {kind} does not read "
                              f"{', '.join(map(repr, unread))}")
    return config


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _json_safe(obj):
    """Plain-Python copy; non-finite floats become "inf", "-inf" or "nan"."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_json_safe(v) for v in obj]
    obj = obj.item() if isinstance(obj, np.generic) else obj
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def write_json(path: Path, payload: dict):
    with open(path, "w") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _exp(value):
    return INF if value in ("inf", None) else float(value)


def _needs_form(harness) -> bool:
    form = _RUNNERS[harness["type"]].form
    return form(harness) if callable(form) else form


def _build_kernel_grid(config):
    kind = config["harness"]["type"]
    required = ("kernel", "grid") if _needs_form(config["harness"]) else _RUNNERS[kind].sections
    for key in required:
        if key not in config:
            raise ConfigError(f"$['{key}']: required for {kind}")
    if "kernel" in config and "grid" in config and config["kernel"]["d"] != config["grid"]["d"]:
        raise ConfigError(f"$['grid']['d']: {config['grid']['d']} does not match "
                          f"$['kernel']['d'] = {config['kernel']['d']}")
    kernel = None
    if "kernel" in config:
        try:
            kernel = kernels.kernel_from_config(config["kernel"])
        except KeyError as exc:
            raise ConfigError(f"$['kernel']: missing entry or unknown preset {exc}") from None
        except (ValueError, TypeError) as exc:   # numbers or shapes no kernel takes
            raise ConfigError(f"$['kernel']: {exc}") from None
    center = config["harness"].get("center")
    if kernel is not None and center is not None and len(center) != kernel.d:
        raise ConfigError(f"$['harness']['center']: {center!r} needs d = {kernel.d} entries")
    grid = None
    if "grid" in config:
        gc = config["grid"]
        try:
            grid = discretize.build_grid(int(gc["d"]), float(gc["X"]), float(gc["h"]),
                                         gc.get("omega"))
        except KeyError as exc:     # a domain without its type, halfwidth or radius
            raise ConfigError(f"$['grid']: missing entry {exc}") from None
        except ValueError as exc:   # a grid the config's numbers cannot make
            raise ConfigError(f"$['grid']: {exc}") from None
    return kernel, grid


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _scipy_version() -> str:
    """The installed scipy's version, from its ``version.py``."""
    spec = importlib.util.spec_from_file_location("scipy.version", scipy_path("version.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _environment() -> dict:
    """manifest["env"]: versions, BLAS, thread variables (None when unset) and
    the CPUs this process may run on.  scipy's version is read from its
    ``version.py``, as no command imports a scipy package.  ``platform`` is
    imported here: start-up needs none of it."""
    import platform

    try:
        config = np.show_config(mode="dicts")
    except TypeError:       # numpy < 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    affinity = getattr(os, "sched_getaffinity", None)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": _scipy_version(),
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
            "cpus": len(affinity(0)) if affinity else os.cpu_count()}


def _resolution(grid, form=None) -> dict:
    """manifest["resolution"] of a grid and form, either None; a time-stepping
    runner sets dt through its summary."""
    if grid is None:
        return {"h": None, "N": None, "N_I": None, "dt": None, "quad": None}
    return {"h": grid.h, "N": grid.n_nodes, "N_I": int(grid.interior.sum()), "dt": None,
            "quad": None if form is None else form.meta.get("quad")}


def run_scenario(config: dict, out_dir: Path) -> dict:
    """Execute one validated scenario and write all of its artifacts.

    The config checks (``_build_kernel_grid``, the command's prepare) run
    first; then the form is assembled here, once, for the runners that need
    one. A runner returns (summary, report, tables) and opens no file; each
    table is (csv path, header, rows), its path taken relative to out_dir. A
    "health" and a "resolution" entry (the fields it sets in ``_resolution``)
    of the summary go to manifest.json instead of summary.txt. Returns the
    summary dictionary.
    """
    kind = config["harness"]["type"]
    command = _RUNNERS[kind]
    kernel, grid = _build_kernel_grid(config)
    prepared = command.prepare(config, kernel, grid) if command.prepare else ()
    out_dir.mkdir(parents=True, exist_ok=True)      # the config passed every check
    form = discretize.assemble(kernel, grid) if _needs_form(config["harness"]) else None
    summary, report, tables = command.run(config, kernel, grid, form, *prepared)
    health = summary.pop("health", None)
    resolution = {**_resolution(grid, form), **summary.pop("resolution", {})}
    for path, header, rows in tables:
        write_csv(out_dir / path, header, rows)
    write_json(out_dir / "report.json", report)
    manifest = {
        "version": __version__,
        "config": config,
        "harness": kind,
        "env": _environment(),
        "resolution": resolution,
    }
    if kernel is not None:
        manifest["kernel_hash"] = kernel.spec.digest()
    if health is not None:
        manifest["health"] = health
    write_json(out_dir / "manifest.json", manifest)
    lines = [f"{kind}: {summary.get('headline', 'done')}"]
    for key, val in summary.items():
        if key == "headline":
            continue
        lines.append(f"  {key}: {val}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return summary


# --- harness runners -------------------------------------------------------
# Each takes (config, kernel, grid, form, *prepared) and returns (summary, report, tables).


def _ball(config, kernel, grid):
    harness = config["harness"]
    name = harness.get("assumption", "K1")
    for fits in _ASSUMPTIONS[name][1]:
        fits(kernel, name, harness)
    domain = {} if grid is None else {"omega": grid.omega}    # else BallSpec's default box
    try:
        return (assumptions.BallSpec(tuple(harness.get("center", [0.0] * kernel.d)),
                                     float(harness.get("R", 0.5)), harness.get("rho"),
                                     **domain),)
    except ValueError as exc:       # a rho above R, or a ball that leaves the domain
        raise ConfigError(f"$['harness']: {exc}") from None


def _run_check_kernel(config, kernel, grid, form, ball):
    harness = config["harness"]
    which = harness.get("assumption", "K1")
    check = SimpleNamespace(kernel=kernel, grid=grid, form=form, harness=harness, ball=ball,
                            theta=_exp(harness.get("theta_exp", "inf")))
    rep = {"assumption": which, **_ASSUMPTIONS[which][2](check)}
    if which == "summary":
        return {"headline": f"K1 {rep['K1']['verdict']}, good-set "
                            f"{rep['good_set']['fraction']:.3f}, "
                            f"tail sigma {rep['tail']['sigma_fit']:.3f}"}, rep, []
    return {"headline": f"assumption {which}: {rep.get('verdict', which)}", **{
        k: v for k, v in rep.items() if isinstance(v, (int, float, str, bool))}}, rep, []


def _run_assemble(config, kernel, grid, form):
    one = np.ones(grid.n_nodes)
    defect = float(np.max(np.abs(form.A @ one - form.tail)))
    report = {"n_nodes": grid.n_nodes, "h": grid.h,
              "constants_null_defect": defect,
              "kernel_hash": form.meta["kernel_hash"]}
    dump = config["harness"].get("dump_form")
    # the dump goes where the user named it, relative to the working directory
    tables = [(Path(dump).absolute(), [f"c{i}" for i in range(grid.n_nodes)],
               form.A.tolist())] if dump else []
    return {"headline": f"assembled {grid.n_nodes} nodes", **report}, report, tables


def _time_span(config, kernel, grid):
    """(dt, horizon) of a solve run, dt the ``whole_steps`` step of at most the config's
    dt (default ``default_dt`` at kernel.alpha, the order ``kernel_alpha`` reads)."""
    pc = config.get("problem", {})
    dt = solve.default_dt(grid.h, kernel.alpha) if pc.get("dt") is None else pc["dt"]
    horizon = float(pc.get("horizon", 8 * dt))
    if horizon < dt:
        # a step longer than the run is a slip in the config, not shortened here
        raise ConfigError(f"$['problem']['horizon']: {horizon} is shorter than one "
                          f"time step dt = {dt}")
    return solve.whole_steps(horizon, dt)[1], horizon


def _problem_from_config(config, form, dt, horizon):
    grid = form.grid
    pc = config.get("problem", {})
    harness = config["harness"]
    seed = int(harness.get("seed", 0))
    rng = kernels.philox_stream(seed, 0)
    u0_field = kernels.random_smooth_positive_field(rng, grid.d)
    g_field = kernels.random_smooth_positive_field(rng, grid.d)
    return solve.ParabolicProblem(
        form, u0_field(grid.nodes), 0.0, horizon, dt,
        collar=g_field(grid.nodes[grid.collar]),
        exterior=float(pc.get("exterior", 0.0)),
        theta=float(pc.get("theta", 1.0)),
        variant=pc.get("variant", "primal"),
        d_const=float(pc.get("d_const", 0.0)))


def _run_solve(config, kernel, grid, form, dt, horizon):
    problem = _problem_from_config(config, form, dt, horizon)
    sol = solve.solve_parabolic(problem)
    n_times, n_nodes = sol.snapshots.shape
    rows = zip(np.repeat(sol.times, n_nodes).tolist(),
               np.tile(np.arange(n_nodes), n_times).tolist(),
               sol.snapshots.ravel().tolist())
    report = {"steps": len(sol.times) - 1, "dt": problem.dt, "t_end": sol.meta["t_end"],
              "max_residual": float(np.max(sol.residuals)),
              "final_min": float(np.min(sol.snapshots[-1])),
              "final_max": float(np.max(sol.snapshots[-1]))}
    return ({"headline": f"{report['steps']} steps", **report,
             "resolution": {"dt": problem.dt}}, report,
            [("snapshots.csv", ["t", "node", "value"], rows)])


def _cylinder(harness, kernel):
    return estimates.Cylinder(float(harness.get("t0", 0.0)), float(harness.get("R", 0.5)),
                              kernel.alpha, tuple(harness.get("center", [0.0] * kernel.d)))


def _inside(config, kernel, grid):
    """The cylinder of a harnack or hoelder run, refused if its ball B_R(center)
    leaves the domain (its late box and fit windows would read collar nodes,
    whose values are the datum, not the solution) or if the smallest ball the
    run reads holds fewer grid nodes than it needs (``estimates.smallest_ball``)."""
    cylinder, omega = _cylinder(config["harness"], kernel), grid.omega
    off = np.subtract(cylinder.center, omega.get("center", [0.0] * grid.d))
    box = omega["type"] == "box"
    reach = float(np.max(np.abs(off)) if box else np.linalg.norm(off)) + cylinder.R
    size = "halfwidth" if box else "radius"
    if reach > float(omega[size]) + 1e-12:
        raise ConfigError(f"$['harness']: B_R(center) leaves the domain: center offset + R = "
                          f"{reach:.12g} > {omega['type']} {size} {float(omega[size]):.12g}")
    kind = config["harness"]["type"]
    radius, need = estimates.smallest_ball(cylinder, kind)
    have = int(np.sum(grid.ball_mask(cylinder.center, radius)))
    if have < need:
        raise ConfigError(f"$['harness']: R = {cylinder.R:.12g} is too small for h = "
                          f"{grid.h:.12g}: {kind} reads B_{radius:.12g}(center), which holds "
                          f"{have} grid nodes, fewer than {need}")
    return (cylinder,)


def _health(out):
    """The summary entries that run_scenario moves to manifest["health"] and
    manifest["resolution"]."""
    return {"health": {"max_step_residual": out["max_step_residual"]},
            "resolution": {"dt": out["dt"]}}


def _run_harnack(config, kernel, grid, form, cylinder):
    harness = config["harness"]
    out = estimates.harnack_ensemble(form, cylinder, int(harness.get("ensemble", 50)),
                                     int(harness.get("seed", 0)))
    report = {k: out[k] for k in ("min", "median", "max", "n_runs", "h", "dt")}
    report["horizon"] = {k: out[k] for k in ("t_end", "n_steps")}
    return ({"headline": f"min c_emp = {out['min']:.4g}", **report, **_health(out)}, report,
            [("harnack.csv", ["run", "c_emp"], list(enumerate(out["c_emp"])))])


def _run_hoelder(config, kernel, grid, form, cylinder):
    harness = config["harness"]
    out = estimates.holder_ensemble(form, cylinder, int(harness.get("ensemble", 50)),
                                    int(harness.get("seed", 0)))
    report = {k: out[k] for k in ("fraction_in_range", "median", "n_runs", "h")}
    report["horizon"] = {k: out[k] for k in ("t_end", "n_steps")}   # members stop at t_fit
    rows = [(i, g if g is not None else "", f)
            for i, (g, f) in enumerate(zip(out["gamma_fit"], out["flat"]))]
    return ({"headline": f"{out['fraction_in_range']:.0%} of fits in (0, 1]", **report,
             **_health(out)}, report, [("hoelder.csv", ["run", "gamma_fit", "flat"], rows)])


def _p_list(config, kernel, grid):
    """The powers of a caccioppoli run; p = 1 has a log audit of its own."""
    p_list = config["harness"].get("p_list", [0.5, 2.0])
    if 1 in p_list:
        raise ConfigError(f"$['harness']['p_list']: {p_list!r} holds p = 1, which the "
                          f"power audit excludes")
    return (p_list,)


def _run_caccioppoli(config, kernel, grid, form, p_list):
    harness = config["harness"]
    out = estimates.caccioppoli_ensemble(
        form, tuple(harness.get("center", [0.0] * kernel.d)),
        float(harness.get("R", 0.4)), float(harness.get("rho", 0.3)),
        p_list, int(harness.get("ensemble", 100)),
        int(harness.get("seed", 0)), eps=float(harness.get("eps", 0.1)),
        variant=config.get("problem", {}).get("variant", "primal"))
    rows = [(i, p, v) for p, vals in out["c_hat"].items() for i, v in enumerate(vals)]
    flat = {f"p={p}": s["max"] for p, s in out["summary"].items()}
    return ({"headline": "empirical constants recorded", **flat}, out["summary"],
            [("caccioppoli.csv", ["run", "p", "c_hat"], rows)])


def _run_algebra(config, kernel, grid, form):
    harness = config["harness"]
    n = int(harness.get("samples", 10000))
    seed = int(harness.get("seed", 0))
    rng = kernels.philox_stream(seed, 0)
    p = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    t = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    tau1 = rng.uniform(0, 3, n)
    tau2 = rng.uniform(0, 3, n)
    delta = rng.uniform(1e-3, 1 - 1e-3, n)
    margins = {}
    # the first 50 distinct rounded p: np.unique's array, without its import of numpy.ma
    levels = np.sort(np.round(p, 2))
    levels = levels[np.concatenate(([True], levels[1:] != levels[:-1]))]
    for pk in levels[:50]:
        out = algebra.check_chain_rule_bounds(algebra.ChainRulePair(float(pk)), s[:200],
                                              t[:200])
        for name, vals in out.items():
            margins.setdefault(name, []).append(float(np.min(vals)))
    pair_vals = algebra.check_weighted(tau1, tau2, np.log(t), np.log(s), delta)
    for name, vals in pair_vals.items():
        margins.setdefault(name, []).append(float(np.min(vals)))
    logm = algebra.check_log_weight(tau1, tau2, t, s)
    margins["log_lower"] = [float(np.min(logm["log_lower"]))]
    reports = [{"lemma": name, "samples": n, "min_margin": float(np.min(vals))}
               for name, vals in margins.items()]
    rows = [(r["lemma"], r["samples"], r["min_margin"]) for r in reports]
    worst = min(r["min_margin"] for r in reports)
    return ({"headline": f"worst margin {worst:.3e}", "worst_margin": worst},
            {"lemmas": reports}, [("algebra.csv", ["lemma", "samples", "min_margin"], rows)])


def _alpha_family(config, kernel, grid):
    """The alpha-family of the configured kernel at the harness's alphas."""
    alphas = config["harness"].get("alphas", [1.5, 1.8, 1.9, 1.95])
    try:
        return (mosco.alpha_family(kernel, alphas),)
    except ValueError as exc:       # a cone kernel, or a member outside the comparison
        raise ConfigError(f"$['kernel']: {exc}") from None


def _run_mosco(config, kernel, grid, form, family):
    harness = config["harness"]
    d = kernel.d
    probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 10)]
    coeffs = mosco.local_coefficients(family, probe, delta=float(harness.get("delta", 0.5)))
    f = lambda x: np.exp(-4 * np.sum(np.asarray(x) ** 2, axis=-1))
    res = mosco.resolvent_convergence(family, grid, f,
                                      float(harness.get("lam_resolvent", 5.0)),
                                      coeffs=coeffs)
    rows = [(a, *np.mean(coeffs["a"][a], axis=0).ravel(), *np.mean(coeffs["b"][a], axis=0),
             gap) for a, gap in zip(res["alphas"], res["gaps"])]
    header = ["alpha", *(f"a_{i}{j}" for i in range(d) for j in range(d)),
              *(f"b_{i}" for i in range(d)), "resolvent_gap"]
    report = {
        "a_limit": np.mean(coeffs["a_limit"], axis=0).tolist(),
        "b_limit": np.mean(coeffs["b_limit"], axis=0).tolist(),
        "delta_sensitivity": coeffs["delta_sensitivity"],
        "gap_first": res["gaps"][0], "gap_last": res["gaps"][-1],
    }
    headline = f"resolvent gap {res['gaps'][0]:.3g} -> {res['gaps'][-1]:.3g}"
    return ({"headline": headline,
             **{k: v for k, v in report.items() if not isinstance(v, list)}}, report,
            [("mosco.csv", header, rows)])


class _Command(NamedTuple):
    harness: set        # the harness keys its run reads; _validate refuses the others
    problem: set        # the problem keys its run reads
    sections: tuple     # the config sections it requires
    form: object        # whether run_scenario assembles a form: a bool or a function of harness
    preset: dict        # its builtin config, besides the harness
    prepare: object     # None, or its check before any output: the runner's args after form
    run: object         # (config, kernel, grid, form, *prepared) -> (summary, report, tables)


DEFAULT_KERNEL = {"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.5,
                  "cone": {"axis": [1.0], "half_angle": 0.7853981633974483}, "double_cone": None}
DEFAULT_GRID = {"d": 1, "X": 2.0, "h": 1 / 32, "omega": {"type": "box", "halfwidth": 1.5}}
_PRESET, _FORM = {"kernel": DEFAULT_KERNEL, "grid": DEFAULT_GRID}, ("kernel", "grid")
_CYLINDER = {"t0", "R", "center", "ensemble", "seed"}

_RUNNERS = {
    "check-kernel": _Command(
        {"assumption", "R", "center", "rho", "theta_exp", "mu", "A", "zeta", "D", "gamma",
         "seed"}, set(), ("kernel",),
        lambda harness: _ASSUMPTIONS[harness.get("assumption", "K1")][0], _PRESET, _ball,
        _run_check_kernel),
    "assemble": _Command({"dump_form"}, set(), _FORM, True, _PRESET, None, _run_assemble),
    "solve": _Command({"seed"}, {"variant", "theta", "dt", "horizon", "exterior", "d_const"},
                      _FORM, True, _PRESET, _time_span, _run_solve),
    "harnack": _Command(_CYLINDER, set(), _FORM, True, _PRESET, _inside, _run_harnack),
    # _inside asks for estimates._FIT_MIN_NODES = 8 nodes in B_R/8: R = 0.5 needs h = 1/64
    "hoelder": _Command(_CYLINDER, set(), _FORM, True,
                        {**_PRESET, "grid": {**DEFAULT_GRID, "h": 1 / 64}}, _inside, _run_hoelder),
    "caccioppoli": _Command(
        {"center", "R", "rho", "p_list", "ensemble", "seed", "eps"}, {"variant"}, _FORM, True,
        {"kernel": {"family": "stable", "d": 1, "alpha": 1.0},
         "grid": {"d": 1, "X": 2.0, "h": 1 / 16, "omega": {"type": "box", "halfwidth": 1.0}}},
        _p_list, _run_caccioppoli),
    "algebra-tests": _Command({"samples", "seed"}, set(), (), False, {}, None, _run_algebra),
    "mosco": _Command(
        {"alphas", "delta", "lam_resolvent"}, set(), _FORM, False,
        {"kernel": {"family": "stable", "d": 1, "alpha": 1.5},
         "grid": {"d": 1, "X": 1.0, "h": 1 / 32, "omega": {"type": "box", "halfwidth": 0.75}}},
        _alpha_family, _run_mosco),
}


def _default_config(kind: str) -> dict:
    return {"harness": {"type": kind}, **{k: dict(v) for k, v in _RUNNERS[kind].preset.items()}}


class _NonFinite(str):
    """NaN, Infinity, -Infinity (JSON has none, but ``json`` reads them) or an
    overflowing literal of a config file or flag, kept as its text."""


def _parse_number(text: str):
    return float(text) if math.isfinite(float(text)) else _NonFinite(text)


def _refuse_non_finite(value, where: str = "$"):
    """Refused with its path before ``_check``, which never sees a _NonFinite."""
    if isinstance(value, _NonFinite):
        raise ConfigError(f"{where}: {value} is not a finite number")
    for key, item in (value.items() if isinstance(value, dict)
                      else enumerate(value) if isinstance(value, list) else ()):
        _refuse_non_finite(item, f"{where}[{key!r}]")


def _float_list(text: str) -> list:
    return [_parse_number(a) for a in text.split(",")]


# the harness keys that have a flag: a command offers those of the keys it reads
_FLAGS = {"seed": {"type": int}, "ensemble": {"type": int}, "assumption": {"type": str},
          "alphas": {"type": _float_list, "help": "comma-separated list for the mosco harness"},
          "dump_form": {"type": lambda text: str(Path(text))}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jumplab",
        description="nonlocal nonsymmetric-kernel laboratory scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in _RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", type=Path, default=None,
                       help="scenario JSON (defaults to a builtin preset)")
        p.add_argument("--out", type=Path, default=Path("runs") / kind)
        for key, kwargs in _FLAGS.items():
            if key in _RUNNERS[kind].harness:
                p.add_argument("--" + key.replace("_", "-"), **kwargs)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            config = json.loads(Path(args.config).read_text(), parse_float=_parse_number,
                                parse_constant=_parse_number)
        else:
            config = _default_config(args.command)
        config.setdefault("harness", {})["type"] = args.command
        for key in _FLAGS:
            if getattr(args, key, None) is not None:
                config["harness"][key] = getattr(args, key)
        _refuse_non_finite(config)
        config = _validate(config)
    except (ConfigError, ValueError, OSError) as exc:    # JSONDecodeError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        summary = run_scenario(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical failure: report the failing stage
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    print(f"[{args.command}] {summary.get('headline', 'done')} "
          f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
