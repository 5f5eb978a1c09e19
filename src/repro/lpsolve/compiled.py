"""The compiled (solver-ready) form of a model.

:class:`CompiledLP` is the sparse ``(c, A_ub, b_ub, A_eq, b_eq,
bounds)`` structure every :class:`~repro.lpsolve.backends.SolverBackend`
consumes, plus the bookkeeping that makes incremental re-solves
possible: a map from each constraint to its compiled row and a
``(row, column) -> data position`` index into the CSR arrays so
individual coefficients can be patched in place without recompiling.
The matrices store every term of every row, explicit zeros included,
so the index covers each position a patch can name; backends prune
the zeros from what they hand the solver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.lpsolve.constraint import Constraint
from repro.lpsolve.errors import StructureError


class CompiledLP:
    """Sparse matrices plus the patch index for one compiled model.

    Attributes:
        c: dense objective vector (already sense-normalized so the
           backend always minimizes).
        a_ub / b_ub: ``A_ub x <= b_ub`` rows (GE rows are negated in).
        a_eq / b_eq: ``A_eq x == b_eq`` rows.
        bounds: per-variable ``(lb, ub)`` pairs (``ub`` may be None).
        ub_rows: constraint -> ``(row, sign)`` for inequality rows,
           where ``sign`` is -1 for constraints stated as GE.
        eq_rows: constraint -> row for equality rows.
    """

    __slots__ = ("c", "a_ub", "b_ub", "a_eq", "b_eq", "bounds",
                 "ub_rows", "eq_rows", "_ub_entries", "_eq_entries",
                 "ub_row_constraints", "eq_row_constraints")

    def __init__(self, c: np.ndarray,
                 a_ub: Optional[sparse.csr_matrix], b_ub: np.ndarray,
                 a_eq: Optional[sparse.csr_matrix], b_eq: np.ndarray,
                 bounds: List[Tuple[float, Optional[float]]],
                 ub_row_constraints: List[Tuple[Constraint, float]],
                 eq_row_constraints: List[Constraint]) -> None:
        self.c = c
        self.a_ub = a_ub
        self.b_ub = b_ub
        self.a_eq = a_eq
        self.b_eq = b_eq
        self.bounds = bounds
        self.ub_row_constraints = ub_row_constraints
        self.eq_row_constraints = eq_row_constraints
        self.ub_rows: Dict[Constraint, Tuple[int, float]] = {
            con: (row, sign)
            for row, (con, sign) in enumerate(ub_row_constraints)}
        self.eq_rows: Dict[Constraint, int] = {
            con: row for row, con in enumerate(eq_row_constraints)}
        self._ub_entries = _entry_index(a_ub)
        self._eq_entries = _entry_index(a_eq)

    @property
    def num_variables(self) -> int:
        return len(self.c)

    # -- in-place patching -------------------------------------------------

    def patch_rhs(self, constraint: Constraint, rhs: float) -> None:
        """Overwrite one row's right-hand side."""
        if constraint in self.ub_rows:
            row, sign = self.ub_rows[constraint]
            self.b_ub[row] = sign * rhs
        elif constraint in self.eq_rows:
            self.b_eq[self.eq_rows[constraint]] = rhs
        else:
            raise StructureError(
                f"constraint {constraint.name!r} is not part of the "
                "compiled model")

    def patch_coefficient(self, constraint: Constraint, column: int,
                          coeff: float) -> None:
        """Overwrite one stored entry of the constraint matrix.

        ``coeff`` is the coefficient as it appears in the constraint's
        normalized ``expr (<=|>=|==) 0`` form. Raises
        :class:`StructureError` when the entry was never stored (the
        variable is not a term of the row) — the caller must
        recompile.
        """
        if constraint in self.ub_rows:
            row, sign = self.ub_rows[constraint]
            pos = self._ub_entries.get((row, column))
            if pos is None:
                raise StructureError(
                    f"no compiled entry for {constraint.name!r} at "
                    f"column {column}")
            self.a_ub.data[pos] = sign * coeff
        elif constraint in self.eq_rows:
            pos = self._eq_entries.get((self.eq_rows[constraint],
                                        column))
            if pos is None:
                raise StructureError(
                    f"no compiled entry for {constraint.name!r} at "
                    f"column {column}")
            self.a_eq.data[pos] = coeff
        else:
            raise StructureError(
                f"constraint {constraint.name!r} is not part of the "
                "compiled model")

    def patch_objective(self, column: int, coeff: float,
                        sense: float) -> None:
        """Overwrite one objective coefficient (``c`` is dense, so any
        column can be patched)."""
        self.c[column] = sense * coeff


def _entry_index(matrix: Optional[sparse.csr_matrix]
                 ) -> Dict[Tuple[int, int], int]:
    """(row, col) -> position in ``matrix.data`` for every stored
    entry."""
    if matrix is None:
        return {}
    index: Dict[Tuple[int, int], int] = {}
    indptr, indices = matrix.indptr, matrix.indices
    for row in range(matrix.shape[0]):
        for pos in range(indptr[row], indptr[row + 1]):
            index[(row, int(indices[pos]))] = pos
    return index
