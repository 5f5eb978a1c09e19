"""Solved LP results."""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Union

import numpy as np

from repro.lpsolve.expr import LinExpr
from repro.lpsolve.variable import Variable


class SolveStatus(enum.Enum):
    """Terminal state of a backend's solve attempt."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class Solution:
    """The optimum of a solve (a failed solve raises instead).

    Attributes:
        objective_value: optimal objective.
        solve_seconds: wall-clock time spent inside the solver.
        iterations: simplex/IPM iteration count reported by HiGHS.
    """

    def __init__(self, values: np.ndarray, objective_value: float,
                 solve_seconds: float, iterations: int,
                 variables: Iterable[Variable]) -> None:
        self.objective_value = objective_value
        self.solve_seconds = solve_seconds
        self.iterations = iterations
        self._values = values
        self._variables = list(variables)

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
        view = self._values.view()
        view.flags.writeable = False
        return view

    def values(self) -> Dict[Variable, float]:
        """All variable values as a dict keyed by variable."""
        return {var: float(self._values[var.index])
                for var in self._variables}

    def __repr__(self) -> str:
        return (f"Solution(objective={self.objective_value:.6g}, "
                f"time={self.solve_seconds:.4f}s)")
