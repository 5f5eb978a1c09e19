"""Linear-programming substrate used by all optimization formulations.

The paper solves its formulations with an off-the-shelf solver (CPLEX).
This package provides the equivalent substrate for the reproduction: a
small modeling layer (variables, linear expressions, constraints, a
model object) that compiles to sparse matrices and is solved by the
one backend the process picks (:mod:`repro.lpsolve.backends`): the
HiGHS solver shipped inside :func:`scipy.optimize.linprog` unless the
CLI's ``--solver`` flag or ``REPRO_SOLVER`` names the dense simplex.

Typical usage::

    from repro.lpsolve import Model

    m = Model("example")
    x = m.add_variable("x", lb=0.0, ub=1.0)
    y = m.add_variable("y", lb=0.0)
    m.add_constraint(x + 2 * y >= 1, name="cover")
    m.minimize(3 * x + y)
    sol = m.solve()  # the optimum, or InfeasibleError/UnboundedError
    print(sol.value(x), sol.objective_value)
"""

from repro.lpsolve.errors import (
    InfeasibleError,
    LPError,
    ModelError,
    StructureError,
    UnboundedError,
)
from repro.lpsolve.expr import LinExpr, lin_sum
from repro.lpsolve.variable import Variable
from repro.lpsolve.constraint import Constraint, ConstraintSense
from repro.lpsolve.block import BlockRow, RowBlock
from repro.lpsolve.compiled import CompiledLP
from repro.lpsolve.backends import (
    BACKENDS,
    BackendResult,
    SolverBackend,
    default_backend_name,
    get_backend,
    set_default_backend,
)
from repro.lpsolve.model import Model
from repro.lpsolve.solution import Solution, SolveStatus
from repro.lpsolve.writer import lp_string

__all__ = [
    "BACKENDS",
    "BackendResult",
    "BlockRow",
    "CompiledLP",
    "Constraint",
    "ConstraintSense",
    "InfeasibleError",
    "LPError",
    "LinExpr",
    "Model",
    "ModelError",
    "RowBlock",
    "Solution",
    "SolveStatus",
    "SolverBackend",
    "StructureError",
    "UnboundedError",
    "Variable",
    "default_backend_name",
    "get_backend",
    "lin_sum",
    "lp_string",
    "set_default_backend",
]
