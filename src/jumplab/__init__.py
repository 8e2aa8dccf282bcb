"""Numerical laboratory for nonlocal operators with nonsymmetric jumping kernels.

``import jumplab`` loads no submodule: a public name resolves on first access
(PEP 562) by importing the submodule ``_HOME`` maps it to.  The lookup reads
the name from that module each time and keeps no copy here, so a patch of the
home module's attribute is what ``jumplab.<name>`` returns.
"""
import importlib

__version__ = "0.1.0"

_HOME = {name: module for module, names in (
    ("kernels", "Cone Kernel KernelSpec c_alpha_norm decompose kernel_from_config "
                "make_coefficient_kernel make_cone_kernel make_drift_kernel make_stable_kernel"),
    ("algebra", "ChainRulePair check_chain_rule_bounds check_log_weight check_weighted "
                "eval_pair"),
    ("discretize", "CutoffProfile DiscreteForm Grid assemble build_grid "
                   "carre_du_champ form_value layer_cake_weighted_form transpose_form"),
    ("solve", "ParabolicProblem Solution default_dt resolvent_solve solve_dual_ext "
              "solve_parabolic theta_step"),
    ("quadrature", "QuadSpec"),
) for name in names.split()}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
