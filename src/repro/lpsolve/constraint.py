"""LP constraints.

A constraint is stored in normalized form ``expr (<=|>=|==) 0`` where
``expr`` is a :class:`~repro.lpsolve.expr.LinExpr` whose constant term
absorbs the right-hand side.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional, TYPE_CHECKING

from repro.lpsolve.expr import LinExpr

if TYPE_CHECKING:  # pragma: no cover
    from repro.lpsolve.variable import Variable


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expr sense 0``.

    Built by comparing expressions (``x + y <= 1``); the comparison
    operators on :class:`LinExpr`/:class:`Variable` return instances of
    this class. The model assigns ``name`` when the constraint is added.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: ConstraintSense,
                 name: Optional[str] = None) -> None:
        self.expr = expr
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        """Right-hand side after moving the constant term across."""
        return -self.expr.constant

    @rhs.setter
    def rhs(self, value: float) -> None:
        self.expr.constant = -value

    def violation(self, values: Mapping["Variable", float]) -> float:
        """Amount by which ``values`` (a var->value mapping) violates
        this constraint; 0.0 when satisfied.

        Useful in tests to check solutions independently of the solver.
        """
        lhs = self.expr.constant + sum(
            coeff * values[var]
            for var, coeff in self.expr.coeffs.items() if coeff != 0.0)
        if self.sense is ConstraintSense.LE:
            return max(0.0, lhs)
        if self.sense is ConstraintSense.GE:
            return max(0.0, -lhs)
        return abs(lhs)

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expr!r} {self.sense.value} 0{label})"
