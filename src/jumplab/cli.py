"""Scenario runner: declarative JSON configs in, reproducible artifacts out.

Every run writes manifest.json (fully resolved config, package version,
kernel hash, resolution metadata), per-harness CSV/JSON reports and a short
human-readable summary into the output directory.  Fixed seed and config give
byte-identical CSVs. Exit codes: 2 for config errors (with a field path),
3 for numerical failures.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import ChainRulePair, check_chain_rule_bounds, check_log_weight, check_weighted
from .assumptions import (
    BallSpec,
    coercivity_ratio,
    cp_check,
    cutoff_sup,
    good_set_fraction,
    k1_glob_profile,
    k1_profile,
    k2_coefficient_D,
    poincare_constant,
    sobolev_ratio,
    suffK1_check,
    tail_sup,
)
from .discretize import assemble, build_grid
from .estimates import (
    Cylinder,
    caccioppoli_ensemble,
    harnack_ensemble,
    holder_ensemble,
    philox_stream,
    random_smooth_positive_field,
)
from .kernels import get_field, kernel_from_config, make_stable_kernel
from .mosco import (
    local_coefficients,
    make_coefficient_family,
    make_drift_family,
    make_isotropic_family,
    resolvent_convergence,
)
from .solve import ParabolicProblem, default_dt, solve_parabolic

INF = float("inf")

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
                "g_smoothness": {"type": "number"},
                "cone": {"type": "object"},
                "double_cone": {"type": ["object", "null"]},
            },
            "required": ["family", "d", "alpha"],
        },
        "grid": {
            "type": "object",
            "properties": {
                "d": {"type": "integer"},
                "X": {"type": "number", "exclusiveMinimum": 0},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "omega": {"type": "object"},
            },
            "required": ["d", "X", "h"],
        },
        "problem": {
            "type": "object",
            "properties": {
                "variant": {"enum": ["primal", "dual", "dual_ext"]},
                "theta": {"type": "number", "minimum": 0.5, "maximum": 1.0},
                "dt": {"type": ["number", "null"]},
                "horizon": {"type": "number"},
                "exterior": {"type": "number"},
                "d_const": {"type": "number"},
            },
        },
        "harness": {
            "type": "object",
            "properties": {
                "type": {"enum": ["check-kernel", "assemble", "solve", "harnack",
                                  "hoelder", "caccioppoli", "algebra-tests",
                                  "mosco"]},
                "assumption": {"enum": ["K1", "K1glob", "K2", "Cutoff", "Poinc",
                                        "Sob", "Tail", "CP", "suffK1",
                                        "coercivity", "good-set", "summary"]},
                "R": {"type": "number"},
                "center": {"type": "array"},
                "t0": {"type": "number"},
                "ensemble": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer"},
                "theta_exp": {"type": ["number", "string"]},
                "mu": {"type": ["number", "string"]},
                "A": {"type": "number"},
                "zeta": {"type": "number"},
                "D": {"type": "number"},
                "rho": {"type": "number"},
                "gamma": {"type": ["number", "null"]},
                "alphas": {"type": "array", "items": {"type": "number"}},
                "family": {"enum": ["isotropic", "drift", "coefficient"]},
                "delta": {"type": "number"},
                "lam_resolvent": {"type": "number"},
                "p_list": {"type": "array", "items": {"type": "number"}},
                "eps": {"type": "number"},
                "samples": {"type": "integer"},
            },
            "required": ["type"],
        },
    },
    "required": ["harness"],
}


class ConfigError(Exception):
    pass


def _validate(config: dict) -> dict:
    import jsonschema

    try:
        jsonschema.validate(config, SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "$" + "".join(f"[{p!r}]" for p in exc.absolute_path)
        raise ConfigError(f"{path}: {exc.message}") from None
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
    if value in ("inf", None):
        return INF
    return float(value)


def _build_kernel_grid(config):
    kernel = kernel_from_config(config["kernel"]) if "kernel" in config else None
    grid = None
    if "grid" in config:
        gc = config["grid"]
        grid = build_grid(int(gc["d"]), float(gc["X"]), float(gc["h"]),
                          gc.get("omega"))
    return kernel, grid


def run_scenario(config: dict, out_dir: Path) -> dict:
    """Execute one validated scenario; returns the summary dictionary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    harness = config["harness"]
    kind = harness["type"]
    runner = _RUNNERS[kind]
    kernel, grid = _build_kernel_grid(config)
    summary = runner(config, out_dir, kernel, grid)
    manifest = {
        "version": __version__,
        "config": config,
        "harness": kind,
    }
    if kernel is not None:
        manifest["kernel_hash"] = kernel.spec.digest()
    write_json(out_dir / "manifest.json", manifest)
    lines = [f"{kind}: {summary.get('headline', 'done')}"]
    for key, val in summary.items():
        if key == "headline":
            continue
        lines.append(f"  {key}: {val}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return summary


# --- harness runners -------------------------------------------------------


def _run_check_kernel(config, out_dir, kernel, grid):
    harness = config["harness"]
    if kernel is None:
        raise ConfigError("$['kernel']: required for check-kernel")
    d = kernel.d
    center = tuple(harness.get("center", [0.0] * d))
    R = float(harness.get("R", 0.5))
    rho = harness.get("rho")
    ball = BallSpec(center, R, rho)
    theta = _exp(harness.get("theta_exp", "inf"))
    which = harness.get("assumption", "K1")
    J = make_stable_kernel(d, kernel.alpha)
    if which == "summary":
        k1 = k1_profile(kernel, J, ball, theta, grid=grid)
        gs = good_set_fraction(kernel, ball, float(harness.get("D", 0.5)),
                               grid=grid)
        ts = tail_sup(kernel, ball, float(harness.get("A", 2.0)), grid=grid)
        rep = {"assumption": "summary", "K1": k1.to_dict(),
               "good_set": gs, "tail": ts}
        write_json(out_dir / "report.json", rep)
        return {"headline": f"K1 {k1.verdict}, good-set {gs['fraction']:.3f}, "
                            f"tail sigma {ts['sigma_fit']:.3f}"}
    if which == "K1":
        rep = k1_profile(kernel, J, ball, theta, grid=grid).to_dict()
    elif which == "K1glob":
        rep = k1_glob_profile(kernel, J, ball, theta, grid=grid).to_dict()
    elif which == "K2":
        lam = config["kernel"].get("lam", 1.0)
        Lam = config["kernel"].get("Lam", 1.0)
        rep = {"assumption": "K2", "D": k2_coefficient_D(lam, Lam)}
    elif which == "good-set":
        rep = {"assumption": "good-set",
               **good_set_fraction(kernel, ball, float(harness.get("D", 0.5)),
                                   grid=grid)}
    elif which == "Tail":
        rep = {"assumption": "Tail",
               **tail_sup(kernel, ball, float(harness.get("A", 2.0)), grid=grid)}
    elif which == "Cutoff":
        rep = {"assumption": "Cutoff",
               **cutoff_sup(kernel, float(harness.get("zeta", R / 2)), ball,
                            grid=grid)}
    elif which == "Poinc":
        form = assemble(kernel, grid)
        rep = {"assumption": "Poinc", **poincare_constant(form, ball)}
    elif which == "Sob":
        form = assemble(kernel, grid)
        rep = {"assumption": "Sob",
               **sobolev_ratio(form, ball, float(harness.get("rho", R / 2)),
                               rng=philox_stream(int(harness.get("seed", 0)), 0))}
    elif which == "coercivity":
        form = assemble(kernel, grid)
        rep = {"assumption": "coercivity", **coercivity_ratio(form, ball)}
    elif which == "CP":
        rep = {"assumption": "CP",
               **cp_check(d, kernel.alpha, theta, _exp(harness.get("mu", "inf")))}
    elif which == "suffK1":
        V = get_field(config["kernel"].get("V", "sin-V"))
        rep = suffK1_check(V, ball, theta, harness.get("gamma", 1.0),
                           kernel.alpha, grid=grid).to_dict()
    else:
        raise ConfigError(f"$['harness']['assumption']: unknown {which!r}")
    write_json(out_dir / "report.json", rep)
    headline = rep.get("verdict", rep.get("assumption", "report"))
    return {"headline": f"assumption {which}: {headline}", **{
        k: v for k, v in rep.items() if isinstance(v, (int, float, str, bool))}}


def _run_assemble(config, out_dir, kernel, grid):
    if kernel is None or grid is None:
        raise ConfigError("$['kernel'] and $['grid'] are required for assemble")
    form = assemble(kernel, grid)
    dump = config["harness"].get("dump_form")
    if dump:
        write_csv(Path(dump), [f"c{i}" for i in range(grid.n_nodes)],
                  form.A.tolist())
    one = np.ones(grid.n_nodes)
    defect = float(np.max(np.abs(form.A @ one - form.tail)))
    report = {"n_nodes": grid.n_nodes, "h": grid.h,
              "constants_null_defect": defect,
              "kernel_hash": form.meta["kernel_hash"]}
    write_json(out_dir / "report.json", report)
    return {"headline": f"assembled {grid.n_nodes} nodes", **report}


def _problem_from_config(config, form):
    grid = form.grid
    pc = config.get("problem", {})
    harness = config["harness"]
    seed = int(harness.get("seed", 0))
    rng = philox_stream(seed, 0)
    u0_field = random_smooth_positive_field(rng, grid.d)
    g_field = random_smooth_positive_field(rng, grid.d)
    alpha = config["kernel"]["alpha"]
    dt = pc.get("dt") or default_dt(grid.h, alpha)
    horizon = float(pc.get("horizon", 8 * dt))
    return ParabolicProblem(
        form, u0_field(grid.nodes), 0.0, horizon, dt,
        collar=g_field(grid.nodes[grid.collar]),
        exterior=float(pc.get("exterior", 0.0)),
        theta=float(pc.get("theta", 1.0)),
        variant=pc.get("variant", "primal"),
        d_const=float(pc.get("d_const", 0.0)))


def _run_solve(config, out_dir, kernel, grid):
    form = assemble(kernel, grid)
    problem = _problem_from_config(config, form)
    sol = solve_parabolic(problem)
    n_times, n_nodes = sol.snapshots.shape
    rows = zip(np.repeat(sol.times, n_nodes).tolist(),
               np.tile(np.arange(n_nodes), n_times).tolist(),
               sol.snapshots.ravel().tolist())
    write_csv(out_dir / "snapshots.csv", ["t", "node", "value"], rows)
    report = {"steps": len(sol.times) - 1, "dt": problem.dt, "t_end": sol.meta["t_end"],
              "max_residual": float(np.max(sol.residuals)),
              "final_min": float(np.min(sol.snapshots[-1])),
              "final_max": float(np.max(sol.snapshots[-1]))}
    write_json(out_dir / "report.json", report)
    return {"headline": f"{report['steps']} steps", **report}


def _cylinder_from(config):
    harness = config["harness"]
    d = config["kernel"]["d"]
    return Cylinder(float(harness.get("t0", 0.0)),
                    float(harness.get("R", 0.5)),
                    float(config["kernel"]["alpha"]),
                    tuple(harness.get("center", [0.0] * d)))


def _run_harnack(config, out_dir, kernel, grid):
    form = assemble(kernel, grid)
    cyl = _cylinder_from(config)
    harness = config["harness"]
    out = harnack_ensemble(form, cyl, int(harness.get("ensemble", 50)),
                           int(harness.get("seed", 0)))
    write_csv(out_dir / "harnack.csv", ["run", "c_emp"],
              list(enumerate(out["c_emp"])))
    summary = {k: out[k] for k in ("min", "median", "max", "n_runs", "h", "dt")}
    write_json(out_dir / "report.json", summary)
    return {"headline": f"min c_emp = {out['min']:.4g}", **summary}


def _run_hoelder(config, out_dir, kernel, grid):
    form = assemble(kernel, grid)
    cyl = _cylinder_from(config)
    harness = config["harness"]
    out = holder_ensemble(form, cyl, int(harness.get("ensemble", 50)),
                          int(harness.get("seed", 0)))
    write_csv(out_dir / "hoelder.csv", ["run", "gamma_fit", "flat"],
              [(i, g if g is not None else "", f)
               for i, (g, f) in enumerate(zip(out["gamma_fit"], out["flat"]))])
    summary = {k: out[k] for k in ("fraction_in_range", "median", "n_runs", "h")}
    write_json(out_dir / "report.json", summary)
    return {"headline": f"{out['fraction_in_range']:.0%} of fits in (0, 1]",
            **summary}


def _run_caccioppoli(config, out_dir, kernel, grid):
    form = assemble(kernel, grid)
    harness = config["harness"]
    d = kernel.d
    out = caccioppoli_ensemble(
        form, tuple(harness.get("center", [0.0] * d)),
        float(harness.get("R", 0.4)), float(harness.get("rho", 0.3)),
        harness.get("p_list", [0.5, 2.0]), int(harness.get("ensemble", 100)),
        int(harness.get("seed", 0)), eps=float(harness.get("eps", 0.1)),
        variant=config.get("problem", {}).get("variant", "primal"))
    rows = []
    for p, vals in out["c_hat"].items():
        rows.extend((i, p, v) for i, v in enumerate(vals))
    write_csv(out_dir / "caccioppoli.csv", ["run", "p", "c_hat"], rows)
    write_json(out_dir / "report.json", out["summary"])
    flat = {f"p={p}": s["max"] for p, s in out["summary"].items()}
    return {"headline": "empirical constants recorded", **flat}


def _run_algebra(config, out_dir, kernel, grid):
    harness = config["harness"]
    n = int(harness.get("samples", 10000))
    seed = int(harness.get("seed", 0))
    rng = philox_stream(seed, 0)
    p = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    t = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    s = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    tau1 = rng.uniform(0, 3, n)
    tau2 = rng.uniform(0, 3, n)
    delta = rng.uniform(1e-3, 1 - 1e-3, n)
    reports = []
    margins = {}
    for pk in np.unique(np.round(p, 2))[:50]:
        out = check_chain_rule_bounds(ChainRulePair(float(pk)), s[:200], t[:200])
        for name, vals in out.items():
            margins.setdefault(name, []).append(float(np.min(vals)))
    pair_vals = check_weighted(tau1, tau2, np.log(t), np.log(s), delta)
    for name, vals in pair_vals.items():
        margins.setdefault(name, []).append(float(np.min(vals)))
    logm = check_log_weight(tau1, tau2, t, s)
    margins["log_lower"] = [float(np.min(logm["log_lower"]))]
    for name, vals in margins.items():
        reports.append({"lemma": name, "samples": n,
                        "min_margin": float(np.min(vals))})
    write_json(out_dir / "report.json", {"lemmas": reports})
    write_csv(out_dir / "algebra.csv", ["lemma", "samples", "min_margin"],
              [(r["lemma"], r["samples"], r["min_margin"]) for r in reports])
    worst = min(r["min_margin"] for r in reports)
    return {"headline": f"worst margin {worst:.3e}", "worst_margin": worst}


def _run_mosco(config, out_dir, kernel, grid):
    harness = config["harness"]
    d = int(config.get("kernel", {}).get("d", 1))
    alphas = tuple(harness.get("alphas", [1.5, 1.8, 1.9, 1.95]))
    fam_name = harness.get("family", "isotropic")
    if fam_name == "isotropic":
        family = make_isotropic_family(d, alphas)
    elif fam_name == "drift":
        V = get_field(config.get("kernel", {}).get(
            "V", {"preset": "linear-V", "b": [0.4] * d}))
        family = make_drift_family(d, alphas, V,
                                   L=float(config.get("kernel", {}).get("L", 2.0)))
    else:
        from .kernels import get_pair_field
        g = get_pair_field(config.get("kernel", {}).get("g", "sin-coefficient"))
        family = make_coefficient_family(
            d, alphas, g, float(config.get("kernel", {}).get("lam", 1.0)),
            float(config.get("kernel", {}).get("Lam", 3.0)))
    if grid is None:
        grid = build_grid(d, 1.0, 1 / 32, {"type": "box", "halfwidth": 0.75})
    delta = float(harness.get("delta", 0.5))
    probe = grid.nodes[grid.interior][:: max(1, int(grid.interior.sum()) // 10)]
    coeffs = local_coefficients(family, probe, delta=delta)
    f = lambda x: np.exp(-4 * np.sum(np.asarray(x) ** 2, axis=-1))
    res = resolvent_convergence(family, grid, f,
                                float(harness.get("lam_resolvent", 5.0)),
                                coeffs=coeffs)
    rows = []
    for i, a in enumerate(res["alphas"]):
        a_mat = np.mean(coeffs["a"][a], axis=0)
        b_vec = np.mean(coeffs["b"][a], axis=0)
        rows.append((a, a_mat[0, 0], b_vec[0], res["gaps"][i]))
    write_csv(out_dir / "mosco.csv", ["alpha", "a_00", "b_0", "resolvent_gap"],
              rows)
    summary = {
        "a_limit": np.mean(coeffs["a_limit"], axis=0).tolist(),
        "b_limit": np.mean(coeffs["b_limit"], axis=0).tolist(),
        "delta_sensitivity": coeffs["delta_sensitivity"],
        "gap_first": res["gaps"][0], "gap_last": res["gaps"][-1],
    }
    write_json(out_dir / "report.json", summary)
    return {"headline": f"resolvent gap {res['gaps'][0]:.3g} -> "
                        f"{res['gaps'][-1]:.3g}", **{
        k: v for k, v in summary.items() if not isinstance(v, list)}}


_RUNNERS = {
    "check-kernel": _run_check_kernel,
    "assemble": _run_assemble,
    "solve": _run_solve,
    "harnack": _run_harnack,
    "hoelder": _run_hoelder,
    "caccioppoli": _run_caccioppoli,
    "algebra-tests": _run_algebra,
    "mosco": _run_mosco,
}

DEFAULT_KERNEL = {"family": "cone", "d": 1, "alpha": 1.5, "beta": 0.5,
                  "cone": {"axis": [1.0], "half_angle": 0.7853981633974483},
                  "double_cone": None}
DEFAULT_GRID = {"d": 1, "X": 2.0, "h": 1 / 32,
                "omega": {"type": "box", "halfwidth": 1.5}}


def _default_config(kind: str) -> dict:
    cfg = {"harness": {"type": kind}}
    if kind in ("check-kernel", "assemble", "solve", "harnack", "hoelder",
                "caccioppoli"):
        cfg["kernel"] = dict(DEFAULT_KERNEL)
        cfg["grid"] = dict(DEFAULT_GRID)
    if kind == "hoelder":
        # the smallest fit scale R / 8 must hold holder_fit's 8 nodes
        cfg["grid"]["h"] = 1 / 64
    if kind == "caccioppoli":
        cfg["kernel"] = {"family": "stable", "d": 1, "alpha": 1.0}
        cfg["grid"] = {"d": 1, "X": 2.0, "h": 1 / 16,
                       "omega": {"type": "box", "halfwidth": 1.0}}
    return cfg


def _float_list(text: str) -> list:
    return [float(a) for a in text.split(",")]


# harness overrides: (flag, argparse keywords, the subcommands whose runner
# reads it); a subcommand refuses the flags it would ignore
_HARNESS_FLAGS = (
    ("--seed", {"type": int}, {"check-kernel", "solve", "harnack", "hoelder",
                               "caccioppoli", "algebra-tests"}),
    ("--ensemble", {"type": int}, {"harnack", "hoelder", "caccioppoli"}),
    ("--assumption", {"type": str}, {"check-kernel"}),
    ("--alphas", {"type": _float_list,
                  "help": "comma-separated list for the mosco harness"}, {"mosco"}),
    ("--dump-form", {"type": lambda text: str(Path(text))}, {"assemble"}),
)


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
        for flag, kwargs, kinds in _HARNESS_FLAGS:
            if kind in kinds:
                p.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            config = json.loads(Path(args.config).read_text())
        else:
            config = _default_config(args.command)
        config.setdefault("harness", {})["type"] = args.command
        for flag, _, _ in _HARNESS_FLAGS:
            key = flag[2:].replace("-", "_")
            if getattr(args, key, None) is not None:
                config["harness"][key] = getattr(args, key)
        config = _validate(config)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
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
