"""Solved LP results."""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.lpsolve.errors import ModelError
from repro.lpsolve.expr import LinExpr
from repro.lpsolve.variable import Variable


class SolveStatus(enum.Enum):
    """Terminal state of a solve attempt."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class Solution:
    """Values and metadata from a successful (or failed) solve.

    Attributes:
        status: terminal :class:`SolveStatus`.
        objective_value: optimal objective (``nan`` unless optimal).
        solve_seconds: wall-clock time spent inside the solver.
        iterations: simplex/IPM iteration count reported by HiGHS.
    """

    def __init__(self, status: SolveStatus, values: np.ndarray,
                 objective_value: float, solve_seconds: float,
                 iterations: int, variables: Iterable[Variable],
                 duals: Optional[Dict[str, float]] = None) -> None:
        self.status = status
        self.objective_value = objective_value
        self.solve_seconds = solve_seconds
        self.iterations = iterations
        self._values = values
        self._variables = list(variables)
        self._duals = duals or {}

    @property
    def is_optimal(self) -> bool:
        """True when the solver proved optimality."""
        return self.status is SolveStatus.OPTIMAL

    def value(self, item: Union[Variable, LinExpr, float]) -> float:
        """Evaluate a variable or expression under this solution."""
        if isinstance(item, Variable):
            return float(self._values[item.index])
        if isinstance(item, LinExpr):
            total = item.constant
            for var, coeff in item.coeffs.items():
                total += coeff * self._values[var.index]
            return float(total)
        return float(item)

    @property
    def x(self) -> np.ndarray:
        """Every variable's value, by column index (read-only)."""
        if self._values is None:
            raise ModelError("no values available for a failed solve")
        view = self._values.view()
        view.flags.writeable = False
        return view

    def dual(self, constraint_name: str) -> float:
        """Shadow price of a named constraint at the optimum.

        For a minimization, the dual is the rate of change of the
        optimal objective per unit relaxation of the constraint's
        right-hand side; 0.0 for non-binding constraints (and for
        solves where the backend reported no marginals).
        """
        return self._duals.get(constraint_name, 0.0)

    def binding_constraints(self, tol: float = 1e-9) -> List[str]:
        """Names of constraints with nonzero shadow price."""
        return sorted(name for name, value in self._duals.items()
                      if abs(value) > tol)

    def values(self) -> Dict[Variable, float]:
        """All variable values as a dict keyed by variable."""
        if self._values is None:
            raise ModelError("no values available for a failed solve")
        return {var: float(self._values[var.index])
                for var in self._variables}

    def __repr__(self) -> str:
        return (f"Solution(status={self.status.value}, "
                f"objective={self.objective_value:.6g}, "
                f"time={self.solve_seconds:.4f}s)")
