"""Per-module instrumentation of jumplab for the traced run.

``instrument`` wraps the public functions and classes of each module by
attribute replacement; ``per_layer_metrics`` turns the recorded spans into the
per-module metrics named in ``PER_LAYER``.  Values labelled "computed" (flops,
quadrature points) come from array shapes, not from hardware counters.
"""
from __future__ import annotations

import numpy as np

from jumplab import algebra, assumptions, cli, discretize, estimates, kernels, mosco, quadrature, solve

from checks import assembly_defects
from tracing import Patcher, Tracer
from workloads import CLI_PRESETS

PER_LAYER = {
    "kernels.calls": "count",
    "kernels.points": "count",
    "kernels.self_s": "s",
    "quadrature.exterior_tail_calls": "count",
    "quadrature.exterior_tail_s": "s",
    "quadrature.exterior_tail_self_s": "s",
    "quadrature.tail_points": "count",
    "quadrature.ball_integral_calls": "count",
    "quadrature.ball_integral_self_s": "s",
    "discretize.assemble_s": "s",
    "discretize.assemble_self_s": "s",
    "discretize.dense_nxn_allocs": "count",
    "discretize.assemble_peak_mb": "MB",
    "discretize.null_defect": "abs",
    "discretize.sym_defect": "rel",
    "discretize.antisym_defect": "rel",
    "solve.steps": "count",
    "solve.step_self_s": "s",
    "solve.parabolic_self_s": "s",
    "solve.lu_factor_calls": "count",
    "solve.lu_factor_s": "s",
    "solve.lu_solve_calls": "count",
    "solve.lu_solve_s": "s",
    "solve.refinements": "count",
    "solve.lu_flops": "flop",
    "solve.max_residual": "rel",
    "solve.resolvent_calls": "count",
    "solve.resolvent_s": "s",
    "estimates.members": "count",
    "estimates.ensemble_self_s": "s",
    "estimates.field_eval_calls": "count",
    "estimates.field_eval_s": "s",
    "estimates.harnack_quotient_s": "s",
    "estimates.holder_fit_s": "s",
    "estimates.caccioppoli_audit_s": "s",
    "estimates.ensemble_peak_mb": "MB",
    "mosco.local_coefficients_s": "s",
    "mosco.assemble_corrected_s": "s",
    "mosco.resolvent_convergence_s": "s",
    "algebra.check_s": "s",
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.artifact_bytes": "B",
    "cli.failed_commands": "count",
    **{f"cli.{c}_s": "s" for c in CLI_PRESETS},
    "bench.check_s": "s",
    "trace.root_s": "s",
}

# Names only the --check report adds: the README commands that cli-presets
# leaves out, and the module only they reach.
EXTRA_UNITS = {"assumptions.k1_profile_s": "s", "cli.check-kernel_s": "s", "cli.hoelder_s": "s"}


def _points(x) -> int:
    x = np.asarray(x)
    return int(np.prod(x.shape[:-1])) if x.ndim > 1 else int(x.size)


def _dense_count(form_or_matrix) -> int:
    if isinstance(form_or_matrix, np.ndarray):
        return 1
    return sum(isinstance(getattr(form_or_matrix, k, None), np.ndarray) for k in ("A", "A_s", "A_a"))


class _CountingLinalg:
    """Stands in for ``jumplab.solve.sla``: spans around lu_factor/lu_solve."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def lu_factor(self, a, *args, **kwargs):
        with self._tracer.span("solve.lu_factor") as sp:
            out = self._real.lu_factor(a, *args, **kwargs)
            n = a.shape[0]
            sp.attrs["flops"] = 2.0 * n ** 3 / 3.0
        return out

    def lu_solve(self, lu_piv, b, *args, **kwargs):
        with self._tracer.span("solve.lu_solve") as sp:
            out = self._real.lu_solve(lu_piv, b, *args, **kwargs)
            n = lu_piv[0].shape[0]
            cols = 1 if np.ndim(b) == 1 else np.shape(b)[1]
            sp.attrs["flops"] = 2.0 * n * n * cols
        return out


def instrument(tracer: Tracer) -> Patcher:
    """Install every wrapper; the caller undoes them with ``patcher.undo()``."""
    p = Patcher()

    def points_after(sp, args, kwargs, result):
        sp.attrs["points"] = _points(args[1])

    for cls in vars(kernels).values():
        if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
            for meth in ("sym", "anti", "__call__"):
                if meth in cls.__dict__:
                    p.set(cls, meth, tracer.wrap(cls.__dict__[meth], "kernels." + meth,
                                                 after=points_after))

    def tail_after(sp, args, kwargs, result):
        pieces, x, _, d, spec = args[:5]
        n_dirs = quadrature.directions(d, spec.n_ang)[0].shape[0]
        per_ray = spec.n_panels * spec.n_gauss
        rows = np.atleast_2d(x).shape[0]
        sp.attrs["points"] = sum(rows * n_dirs * (per_ray + (upper is None))
                                 for _, upper, _ in pieces)

    p.everywhere(quadrature.exterior_tail,
                 tracer.wrap(quadrature.exterior_tail, "quadrature.exterior_tail", after=tail_after))
    p.everywhere(quadrature.ball_integral,
                 tracer.wrap(quadrature.ball_integral, "quadrature.ball_integral"))

    def dense_after(sp, args, kwargs, result):
        sp.attrs["dense"] = _dense_count(result)

    traced_assemble = tracer.wrap(discretize.assemble, "discretize.assemble", after=dense_after,
                                  peak_key="discretize.assemble_peak_mb")

    def assemble_with_health(*args, **kwargs):
        form = traced_assemble(*args, **kwargs)
        with tracer.span("bench.health"):
            for key, val in assembly_defects(form).items():
                tracer.values[key] = max(tracer.values.get(key, 0.0), val)
        return form

    p.everywhere(discretize.assemble, assemble_with_health)
    for meth in ("ks_matrix", "ka_matrix", "k_matrix"):
        p.set(discretize.DiscreteForm, meth,
              tracer.wrap(discretize.DiscreteForm.__dict__[meth], "discretize." + meth,
                          after=dense_after))

    p.set(solve, "sla", _CountingLinalg(solve.sla, tracer))
    p.set(solve._Stepper, "step", tracer.wrap(solve._Stepper.step, "solve.step"))
    p.everywhere(solve._solve_refined, tracer.count(solve._solve_refined, "solve.refined_calls"))

    def residual_after(sp, args, kwargs, result):
        if result.residuals is not None and len(result.residuals):
            tracer.values["solve.max_residual"] = max(
                tracer.values.get("solve.max_residual", 0.0), float(np.max(result.residuals)))

    p.everywhere(solve.solve_parabolic,
                 tracer.wrap(solve.solve_parabolic, "solve.solve_parabolic", after=residual_after))
    p.everywhere(solve.resolvent_solve, tracer.wrap(solve.resolvent_solve, "solve.resolvent_solve"))

    def members_after(sp, args, kwargs, result):
        sp.attrs["members"] = int(result["n_runs"])

    for fn in (estimates.harnack_ensemble, estimates.holder_ensemble,
               estimates.caccioppoli_ensemble):
        p.everywhere(fn, tracer.wrap(fn, "estimates.ensemble", after=members_after,
                                     peak_key="estimates.ensemble_peak_mb"))
    for fn in (estimates.harnack_quotient, estimates.holder_fit, estimates.caccioppoli_audit):
        p.everywhere(fn, tracer.wrap(fn, "estimates." + fn.__name__))

    real_field = estimates.random_smooth_positive_field

    def traced_field_factory(*args, **kwargs):
        return tracer.wrap(real_field(*args, **kwargs), "estimates.field_eval")

    p.everywhere(real_field, traced_field_factory)

    p.everywhere(assumptions.k1_profile, tracer.wrap(assumptions.k1_profile, "assumptions.k1_profile"))
    for fn in (mosco.local_coefficients, mosco.assemble_corrected, mosco.resolvent_convergence):
        p.everywhere(fn, tracer.wrap(fn, "mosco." + fn.__name__))
    for fn in (algebra.check_chain_rule_bounds, algebra.check_weighted, algebra.check_log_weight):
        p.everywhere(fn, tracer.wrap(fn, "algebra.check"))
    for fn in (cli.write_csv, cli.write_json):
        p.everywhere(fn, tracer.wrap(fn, "cli.write"))
    return p


def per_layer_metrics(tracer: Tracer, commands=CLI_PRESETS) -> dict:
    """Aggregate the spans of one traced run into the per-module metrics."""
    t = tracer

    def attr(names, key):
        return sum(s.attrs.get(key, 0) for s in t.spans if s.name in names)

    kernel_spans = [s for s in t.spans if s.name.startswith("kernels.")]
    top_kernel = [s for s in kernel_spans
                  if s.parent is None or not s.parent.name.startswith("kernels.")]
    lu_solves = t.calls("solve.lu_solve")
    m = {
        "kernels.calls": len(kernel_spans),
        "kernels.points": sum(s.attrs.get("points", 0) for s in top_kernel),
        "kernels.self_s": t.self_total("kernels."),
        "quadrature.exterior_tail_calls": t.calls("quadrature.exterior_tail"),
        "quadrature.exterior_tail_s": t.total("quadrature.exterior_tail"),
        "quadrature.exterior_tail_self_s": t.self_total("quadrature.exterior_tail"),
        "quadrature.tail_points": attr({"quadrature.exterior_tail"}, "points"),
        "quadrature.ball_integral_calls": t.calls("quadrature.ball_integral"),
        "quadrature.ball_integral_self_s": t.self_total("quadrature.ball_integral"),
        "discretize.assemble_s": t.total("discretize.assemble"),
        "discretize.assemble_self_s": t.self_total("discretize.assemble"),
        "discretize.dense_nxn_allocs": attr({"discretize.assemble", "discretize.ks_matrix",
                                             "discretize.ka_matrix", "discretize.k_matrix"},
                                            "dense"),
        "discretize.assemble_peak_mb": t.values.get("discretize.assemble_peak_mb", 0.0),
        "discretize.null_defect": t.values.get("null_defect", 0.0),
        "discretize.sym_defect": t.values.get("sym_defect", 0.0),
        "discretize.antisym_defect": t.values.get("antisym_defect", 0.0),
        "solve.steps": t.calls("solve.step"),
        "solve.step_self_s": t.self_total("solve.step"),
        "solve.parabolic_self_s": t.self_total("solve.solve_parabolic"),
        "solve.lu_factor_calls": t.calls("solve.lu_factor"),
        "solve.lu_factor_s": t.total("solve.lu_factor"),
        "solve.lu_solve_calls": lu_solves,
        "solve.lu_solve_s": t.total("solve.lu_solve"),
        "solve.refinements": lu_solves - int(t.counts["solve.refined_calls"]),
        "solve.lu_flops": attr({"solve.lu_factor", "solve.lu_solve"}, "flops"),
        "solve.max_residual": t.values.get("solve.max_residual", 0.0),
        "solve.resolvent_calls": t.calls("solve.resolvent_solve"),
        "solve.resolvent_s": t.total("solve.resolvent_solve"),
        "estimates.members": attr({"estimates.ensemble"}, "members"),
        "estimates.ensemble_self_s": t.self_total("estimates.ensemble"),
        "estimates.field_eval_calls": t.calls("estimates.field_eval"),
        "estimates.field_eval_s": t.total("estimates.field_eval"),
        "estimates.harnack_quotient_s": t.total("estimates.harnack_quotient"),
        "estimates.holder_fit_s": t.total("estimates.holder_fit"),
        "estimates.caccioppoli_audit_s": t.total("estimates.caccioppoli_audit"),
        "estimates.ensemble_peak_mb": t.values.get("estimates.ensemble_peak_mb", 0.0),
        "assumptions.k1_profile_s": t.total("assumptions.k1_profile"),
        "mosco.local_coefficients_s": t.total("mosco.local_coefficients"),
        "mosco.assemble_corrected_s": t.total("mosco.assemble_corrected"),
        "mosco.resolvent_convergence_s": t.total("mosco.resolvent_convergence"),
        "algebra.check_s": t.total("algebra.check"),
        "cli.import_s": t.values.get("cli.import_s", 0.0),
        "cli.write_s": t.total("cli.write"),
        "cli.artifact_bytes": t.values.get("cli.artifact_bytes", 0),
        "cli.failed_commands": t.values.get("cli.failed_commands", 0),
        "bench.check_s": t.total("bench.check") + t.total("bench.health"),
        "trace.root_s": sum(s.duration for s in t.roots()),
    }
    for c in dict.fromkeys(CLI_PRESETS + tuple(commands)):
        m[f"cli.{c}_s"] = t.total(f"cli.{c}")
    return m
