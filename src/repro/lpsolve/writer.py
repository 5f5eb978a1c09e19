"""CPLEX LP-format export.

Writes a :class:`~repro.lpsolve.model.Model` in the standard LP file
format, so any model built here can be inspected by hand or fed to an
external solver (including the paper's actual CPLEX) for
cross-checking. Only the subset of the format we generate is emitted:
objective, constraints, bounds.
"""

from __future__ import annotations

import io
import re
from typing import TextIO

from repro.lpsolve.constraint import ConstraintSense
from repro.lpsolve.expr import LinExpr
from repro.lpsolve.model import Model
from repro.obs import get_registry

_SENSE_TOKEN = {
    ConstraintSense.LE: "<=",
    ConstraintSense.GE: ">=",
    ConstraintSense.EQ: "=",
}

_NAME_SANITIZER = re.compile(r"[^A-Za-z0-9_.]")


def _safe_name(name: str) -> str:
    """LP-format identifiers: restricted charset, must not start with
    a digit or the letter 'e' followed by a digit."""
    cleaned = _NAME_SANITIZER.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "v_" + cleaned
    return cleaned


def _write_expr(out: TextIO, expr: LinExpr) -> None:
    wrote_any = False
    for var, coeff in sorted(expr.coeffs.items(),
                             key=lambda kv: kv[0].index):
        if coeff == 0.0:
            continue
        sign = "+" if coeff >= 0 else "-"
        out.write(f" {sign} {abs(coeff):.12g} {_safe_name(var.name)}")
        wrote_any = True
    if not wrote_any:
        out.write(" 0")


def lp_string(model: Model) -> str:
    """LP-format text of ``model``."""
    objective = getattr(model, "_objective", None)
    if objective is None:
        raise ValueError("model has no objective to write")
    metrics = get_registry()
    out = io.StringIO()
    with metrics.span("lp.write"):
        sense = "Minimize" if model._sense > 0 else "Maximize"
        out.write(f"\\ {model.name}\n{sense}\n obj:")
        _write_expr(out, objective)
        out.write("\nSubject To\n")
        for con in model.constraints:
            out.write(f" {_safe_name(con.name or 'c')}:")
            _write_expr(out, con.expr)
            out.write(f" {_SENSE_TOKEN[con.sense]} {con.rhs:.12g}\n")
        out.write("Bounds\n")
        for var in model.variables:
            name = _safe_name(var.name)
            if var.ub is None:
                if var.lb == 0.0:
                    continue  # default bound
                out.write(f" {var.lb:.12g} <= {name} <= +inf\n")
            else:
                out.write(f" {var.lb:.12g} <= {name} <= {var.ub:.12g}\n")
        out.write("End\n")
    metrics.inc("lp.writes")
    return out.getvalue()
