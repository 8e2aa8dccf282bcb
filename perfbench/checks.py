"""Output checks.  Each ``check_*`` returns a list of problems; empty means passed.

A failed check is counted against the operation (ensemble member, assembly or
CLI command) and shows in ``failed``; nothing is skipped.  The tolerances are
those pinned by acceptance criterion 4 (assembly) and by
``jumplab.solve.RESIDUAL_TOL`` (time steps).
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from jumplab import solve

NULL_DEFECT_TOL = 1e-6      # max |A 1 - tail|, absolute
SPLIT_DEFECT_TOL = 1e-12    # symmetry of A_s / antisymmetry of A_a, relative
_ROWS = 256                 # row block: keeps check temporaries at 256 x N


def assembly_defects(form) -> dict:
    """Constants-null, symmetry and antisymmetry defects of an assembled form."""
    A, A_s, A_a = form.A, form.A_s, form.A_a
    n = A.shape[0]
    null = float(np.max(np.abs(A @ np.ones(n) - form.tail)))
    sym = anti = scale_s = scale_a = 0.0
    for lo in range(0, n, _ROWS):
        hi = min(lo + _ROWS, n)
        sym = max(sym, float(np.max(np.abs(A_s[lo:hi] - A_s[:, lo:hi].T))))
        anti = max(anti, float(np.max(np.abs(A_a[lo:hi] + A_a[:, lo:hi].T))))
        scale_s = max(scale_s, float(np.max(np.abs(A_s[lo:hi]))))
        scale_a = max(scale_a, float(np.max(np.abs(A_a[lo:hi]))))
    return {"null_defect": null, "sym_defect": sym / max(scale_s, 1e-300),
            "antisym_defect": anti / max(scale_a, 1e-300)}


def split_is_exact(form) -> bool:
    """A == A_s + A_a bit for bit."""
    A, A_s, A_a = form.A, form.A_s, form.A_a
    return all(np.array_equal(A[lo:lo + _ROWS], A_s[lo:lo + _ROWS] + A_a[lo:lo + _ROWS])
               for lo in range(0, A.shape[0], _ROWS))


def check_assembly(form) -> tuple[dict, list[str]]:
    defects = assembly_defects(form)
    problems = []
    if not split_is_exact(form):
        problems.append("A != A_s + A_a")
    if not defects["null_defect"] <= NULL_DEFECT_TOL:
        problems.append(f"constants-null defect {defects['null_defect']:.3e} > {NULL_DEFECT_TOL}")
    for key in ("sym_defect", "antisym_defect"):
        if not defects[key] <= SPLIT_DEFECT_TOL:
            problems.append(f"{key} {defects[key]:.3e} > {SPLIT_DEFECT_TOL}")
    return defects, problems


def solution_health(sol) -> dict:
    """What a member check needs from one ``Solution``: cheap, no copies kept."""
    res = sol.residuals
    return {"max_residual": float(np.max(res)) if res is not None and len(res) else math.nan,
            "finite": bool(np.isfinite(sol.snapshots).all())}


def check_run(health: dict | None) -> list[str]:
    if health is None:
        return ["no Solution recorded for this member"]
    problems = []
    if not health["finite"]:
        problems.append("non-finite state")
    if not health["max_residual"] <= solve.RESIDUAL_TOL:
        problems.append(f"step residual {health['max_residual']:.3e} > {solve.RESIDUAL_TOL}")
    return problems


def check_quotient(q) -> list[str]:
    return [] if q is not None and math.isfinite(q) and q > 0 else [f"Harnack quotient {q!r}"]


def check_holder(gamma, flat) -> list[str]:
    if flat:
        return []
    ok = gamma is not None and math.isfinite(gamma) and 0.0 <= gamma <= 1.0
    return [] if ok else [f"Hoelder fit {gamma!r}"]


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} (not RFC 8259 JSON)")


def load_strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def check_artifacts(paths) -> tuple[int, list[str]]:
    """Strict JSON and CSV-with-header over the given files and directories.

    Returns the total artifact bytes and the problems found.
    """
    files = []
    for p in paths:
        files.extend(sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p])
    problems = []
    total = 0
    for path in files:
        total += path.stat().st_size
        try:
            if path.suffix == ".json":
                load_strict_json(path)
            elif path.suffix == ".csv":
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))
                if not rows or not all(rows[0]):
                    raise ValueError("missing header")
                if any(len(r) != len(rows[0]) for r in rows[1:]):
                    raise ValueError("row width differs from header")
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{path.name}: {exc}")
    return total, problems
