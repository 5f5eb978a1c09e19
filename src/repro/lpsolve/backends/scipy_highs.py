"""The default backend: :func:`scipy.optimize.linprog` with HiGHS."""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.lpsolve.backends import BackendResult, SolverBackend
from repro.lpsolve.compiled import CompiledLP
from repro.lpsolve.solution import SolveStatus

# linprog status codes (see scipy docs).
_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ERROR,  # iteration limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,  # numerical difficulties
}


def _without_zeros(matrix: Optional[sparse.csr_matrix]
                   ) -> Optional[sparse.csr_matrix]:
    """A copy holding only the nonzero entries.

    The compiled matrices keep a slot for every term, zero or not, so
    patches always land. HiGHS counts stored entries when it presolves
    and pivots, so it gets the values only: the solution then depends
    on the LP, not on which zero terms a formulation happened to write
    down.
    """
    if matrix is None:
        return None
    pruned = matrix.copy()
    pruned.eliminate_zeros()
    return pruned


class ScipyHighsBackend(SolverBackend):
    """HiGHS via scipy — the reproduction's stand-in for CPLEX."""

    name = "scipy"

    def solve(self, compiled: CompiledLP) -> BackendResult:
        result = linprog(
            compiled.c,
            A_ub=_without_zeros(compiled.a_ub),
            b_ub=compiled.b_ub if compiled.a_ub is not None else None,
            A_eq=_without_zeros(compiled.a_eq),
            b_eq=compiled.b_eq if compiled.a_eq is not None else None,
            bounds=compiled.bounds, method="highs")

        status = _LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
        if status is not SolveStatus.OPTIMAL:
            return BackendResult(status=status,
                                 message=str(result.message))
        return BackendResult(
            status=status, x=np.asarray(result.x, dtype=float),
            objective=float(result.fun), iterations=int(result.nit),
            message=str(result.message))
