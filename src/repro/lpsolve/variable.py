"""LP decision variables."""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.lpsolve.constraint import Constraint
    from repro.lpsolve.expr import LinExpr, Operand
    from repro.lpsolve.model import Model


class Variable:
    """A continuous decision variable owned by a :class:`Model`.

    Variables are created through :meth:`Model.add_variable`; they hash
    by identity and carry their column index in the compiled matrix.
    Arithmetic on a variable promotes it to a
    :class:`~repro.lpsolve.expr.LinExpr`.
    """

    __slots__ = ("name", "lb", "ub", "index", "_model")

    def __init__(self, model: "Model", index: int, name: str,
                 lb: float = 0.0, ub: Optional[float] = None) -> None:
        # The model checks the bounds, once per family of variables.
        self._model = model
        self.index = index
        self.name = name
        self.lb = float(lb)
        self.ub = None if ub is None else float(ub)

    @property
    def model(self) -> "Model":
        """The model this variable belongs to."""
        return self._model

    # -- promotion to expressions ---------------------------------------

    def _expr(self) -> "LinExpr":
        from repro.lpsolve.expr import LinExpr

        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "Operand") -> "LinExpr":
        return self._expr() + other

    def __radd__(self, other: "Operand") -> "LinExpr":
        return self._expr() + other

    def __sub__(self, other: "Operand") -> "LinExpr":
        return self._expr() - other

    def __rsub__(self, other: "Operand") -> "LinExpr":
        return (-self._expr()) + other

    def __neg__(self) -> "LinExpr":
        return -self._expr()

    def __mul__(self, factor: float) -> "LinExpr":
        return self._expr() * factor

    def __rmul__(self, factor: float) -> "LinExpr":
        return self._expr() * factor

    def __truediv__(self, divisor: float) -> "LinExpr":
        return self._expr() / divisor

    def __le__(self, other: "Operand") -> "Constraint":
        return self._expr() <= other

    def __ge__(self, other: "Operand") -> "Constraint":
        return self._expr() >= other

    def __eq__(self, other: "Operand") -> "Constraint":  # type: ignore[override]
        return self._expr() == other

    __hash__ = object.__hash__

    def __repr__(self) -> str:
        ub = "inf" if self.ub is None else f"{self.ub:g}"
        return f"Variable({self.name!r}, lb={self.lb:g}, ub={ub})"
