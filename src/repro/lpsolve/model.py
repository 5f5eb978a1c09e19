"""The LP model: variable/constraint registry, compilation, solving.

Compilation builds SciPy sparse matrices (``A_ub``, ``A_eq``) from the
registered constraints; solving hands the compiled structure to the
process's :mod:`~repro.lpsolve.backends` backend (HiGHS via scipy by
default — the reproduction's stand-in for the paper's CPLEX).

The compiled structure is cached between solves: re-solving an
unchanged model skips compilation entirely, and the
``set_rhs`` / ``set_block_coefficients`` / ``set_objective_coefficient``
patch API edits the cached matrices in place (a right-hand side, a
whole row family, an objective entry) so parameter sweeps and
controller refreshes pay only the solver cost.
Any structural edit (new variable, new constraint, new objective)
invalidates the cache.

A constraint is either *symbolic* (it owns a ``LinExpr``) or a row of
a :class:`~repro.lpsolve.block.RowBlock`, which holds a whole row
family as arrays: listed as views (:meth:`Model.add_block_row`, or
:meth:`Model.add_block_rows` for the whole family),
compiled array-to-array, patched a family at a time
(:meth:`Model.set_block_coefficients`).
"""

from __future__ import annotations

import math
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.lpsolve.backends import default_backend_name, get_backend
from repro.lpsolve.block import BlockRow, RowBlock
from repro.lpsolve.compiled import CompiledLP, compile_rows
from repro.lpsolve.constraint import Constraint, ConstraintSense
from repro.obs import get_registry
from repro.lpsolve.errors import (
    InfeasibleError,
    LPError,
    ModelError,
    StructureError,
    UnboundedError,
)
from repro.lpsolve.expr import LinExpr, Operand, _as_expr
from repro.lpsolve.solution import Solution, SolveStatus
from repro.lpsolve.variable import Variable


def _refuse_if_infeasible(row: Constraint) -> None:
    """A row dropped for having no variables must hold as it is."""
    if row.violation({}) > 1e-9:
        raise ModelError(
            f"constant constraint {row!r} is trivially infeasible")


class Model:
    """A linear program under construction.

    The model owns its variables and constraints. Typical lifecycle::

        m = Model("replication")
        x = m.add_variable("x", lb=0, ub=1)
        m.add_constraint(x >= 0.5)
        m.minimize(x)
        sol = m.solve()

    Args:
        name: human-readable label used in error messages.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._constraints: List[Constraint] = []
        self._objective: Optional[LinExpr] = None
        self._sense = 1.0  # +1 minimize, -1 maximize
        self._names_seen: Dict[str, int] = {}
        self._compiled: Optional[CompiledLP] = None

    # -- construction ----------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of registered variables (columns)."""
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        """Number of registered constraints (rows)."""
        return len(self._constraints)

    @property
    def variables(self) -> Sequence[Variable]:
        """All registered variables in creation order."""
        return tuple(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """All registered constraints in insertion order."""
        return tuple(self._constraints)

    @property
    def objective(self) -> Optional[LinExpr]:
        """The objective expression, if one has been set."""
        return self._objective

    def add_variable(self, name: str, lb: float = 0.0,
                     ub: Optional[float] = None) -> Variable:
        """Create and register a continuous variable.

        Args:
            name: human-readable label; deduplicated if reused.
            lb: lower bound (default 0, matching the paper's fractions).
            ub: upper bound, or ``None`` for unbounded above.
        """
        return self.add_variables((name,), lb=lb, ub=ub)[0]

    def add_variables(self, names: Iterable[str], lb: float = 0.0,
                      ub: Optional[float] = None) -> List[Variable]:
        """Vector form of :meth:`add_variable`: one column family with
        shared bounds, one invalidation. Names new to the model are
        registered in bulk; a repeat gets the ``#N`` suffix
        :meth:`add_variable` would give it."""
        names = list(names)
        if names:
            if ub is not None and ub < lb:
                raise ModelError(
                    f"variable {names[0]!r}: upper bound {ub} below "
                    f"lower bound {lb}")
            if math.isnan(lb) or (ub is not None and math.isnan(ub)):
                raise ModelError(f"variable {names[0]!r}: NaN bound")
        seen = self._names_seen
        fresh = dict.fromkeys(names, 0)
        if len(fresh) == len(names) and seen.keys().isdisjoint(fresh):
            seen.update(fresh)
        else:
            for at, name in enumerate(names):
                count = seen.get(name)
                if count is not None:
                    seen[name] = count + 1
                    names[at] = f"{name}#{count + 1}"
                else:
                    seen[name] = 0
        start = len(self._variables)
        self._variables.extend(
            Variable(self, index, name, lb, ub)
            for index, name in enumerate(names, start))
        self.invalidate()
        return self._variables[start:]

    def add_constraint(self, constraint: Constraint,
                       name: Optional[str] = None) -> Constraint:
        """Register a constraint built via expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "add_constraint expects a Constraint (build one with "
                "<=, >= or == on expressions); a plain bool usually "
                "means a comparison between two numbers")
        self._check_ownership(constraint.expr)
        if constraint.expr.is_constant():
            # A constraint with no variables is either a tautology (we
            # drop it silently) or an immediate contradiction (better
            # reported at build time than as solver infeasibility).
            if constraint.violation({}) > 1e-9:
                raise ModelError(
                    f"constant constraint {constraint!r} is "
                    "trivially infeasible")
            return constraint
        if name is not None:
            constraint.name = name
        elif constraint.name is None:
            constraint.name = f"c{len(self._constraints)}"
        self._constraints.append(constraint)
        self.invalidate()
        return constraint

    def add_block_row(self, block: RowBlock, ordinal: int, rhs: float,
                      name: str) -> BlockRow:
        """List row ``ordinal`` of ``block`` as a constraint. Like
        :meth:`add_constraint`, a row with no variables right now is
        dropped (or refused as infeasible); the returned view then
        names a row the model does not have."""
        block.rhs[ordinal] = rhs
        row = BlockRow(block, ordinal, name)
        lo, hi = block.indptr[ordinal:ordinal + 2]
        if block.lead is None and not block.coeffs[lo:hi].any():
            _refuse_if_infeasible(row)
            return row
        block.live[lo:hi] = True
        self._constraints.append(row)
        self.invalidate()
        return row

    def add_block_rows(self, block: RowBlock, rhs: Sequence[float],
                       names: Sequence[str]) -> List[BlockRow]:
        """:meth:`add_block_row` for every row of ``block``, in
        ordinal order, in one pass over its arrays."""
        block.rhs[:] = rhs
        rows = [BlockRow(block, ordinal, name)
                for ordinal, name in enumerate(names)]
        listed = np.ones(len(rows), dtype=bool)
        if block.lead is None:
            listed = np.bincount(block.rows[block.coeffs != 0.0],
                                 minlength=len(rows)) > 0
            for at in np.flatnonzero(~listed).tolist():
                _refuse_if_infeasible(rows[at])
        block.live |= listed[block.rows]
        self._constraints.extend(
            row for row, keep in zip(rows, listed.tolist()) if keep)
        self.invalidate()
        return rows

    def minimize(self, objective: Operand) -> None:
        """Set a minimization objective."""
        self._objective = _as_expr(objective)
        self._check_ownership(self._objective)
        self._sense = 1.0
        self.invalidate()

    def maximize(self, objective: Operand) -> None:
        """Set a maximization objective."""
        self._objective = _as_expr(objective)
        self._check_ownership(self._objective)
        self._sense = -1.0
        self.invalidate()

    def _check_ownership(self, expr: LinExpr) -> None:
        for var in expr.coeffs:
            if var.model is not self:
                raise ModelError(
                    f"variable {var.name!r} belongs to model "
                    f"{var.model.name!r}, not {self.name!r}")

    # -- compilation -------------------------------------------------------

    def invalidate(self) -> None:
        """Drop the cached compiled structure (next solve recompiles)."""
        self._compiled = None

    @property
    def compiled(self) -> Optional[CompiledLP]:
        """The cached compiled structure, if any."""
        return self._compiled

    def _compile(self) -> CompiledLP:
        """Build the solver-ready sparse structure.

        Every term of a constraint gets a stored entry, zero
        coefficients included: the pattern follows the rows'
        structure, not their current values, so a block patch to or
        from zero is written in place
        (:func:`~repro.lpsolve.compiled.compile_rows`).
        """
        n = len(self._variables)
        c = np.zeros(n)
        for var, coeff in self._objective.coeffs.items():
            c[var.index] += coeff
        c *= self._sense

        ub = [con for con in self._constraints
              if con.sense is not ConstraintSense.EQ]
        eq = [con for con in self._constraints
              if con.sense is ConstraintSense.EQ]
        # Column by column: a list of n pairs converts four times slower.
        bounds = np.empty((n, 2), dtype=np.float64)
        bounds[:, 0] = [v.lb for v in self._variables]
        bounds[:, 1] = [np.inf if v.ub is None else v.ub
                        for v in self._variables]
        return CompiledLP(c, bounds,
                          compile_rows(ub, n), compile_rows(eq, n))

    # -- incremental patching ----------------------------------------------

    def set_rhs(self, constraint: Constraint, rhs: float) -> None:
        """Re-target a registered constraint's right-hand side.

        Updates the constraint (or, for a block row, its block) and,
        when a compiled structure is cached, the corresponding
        ``b_ub`` / ``b_eq`` entry in place — no recompilation.
        """
        constraint.rhs = float(rhs)
        if self._compiled is not None:
            self._compiled.patch_rhs(constraint, float(rhs))

    def set_block_coefficients(self, block: RowBlock,
                               term_coeffs: Sequence[float]) -> None:
        """Overwrite a block's coefficients, one per term of the
        generator it was built from. Raises :class:`StructureError`
        when the term count changed or a row the model does not list
        would become non-zero."""
        coeffs = block.entry_coeffs(np.asarray(term_coeffs, dtype=float))
        if coeffs[~block.live].any():
            raise StructureError(
                "a non-zero coefficient in a block row the model "
                "does not list")
        block.coeffs = coeffs
        if self._compiled is not None:
            self._compiled.patch_block(block)

    def set_objective_coefficient(self, var: Variable,
                                  coeff: float) -> None:
        """Overwrite one objective coefficient (in the model's stated
        min/max sense); the dense compiled ``c`` is patched in place."""
        if self._objective is None:
            raise ModelError(f"model {self.name!r} has no objective")
        self._check_ownership(_as_expr(var))
        self._objective.coeffs[var] = float(coeff)
        if self._compiled is not None:
            self._compiled.patch_objective(var.index, float(coeff),
                                           self._sense)

    # -- solving -----------------------------------------------------------

    def solve(self) -> Solution:
        """Compile (or reuse the cached compilation) and solve.

        Returns:
            The optimum as a :class:`Solution`.

        Raises:
            InfeasibleError: the constraints admit no point.
            UnboundedError: the objective has no finite optimum.
            LPError: the backend failed for any other reason.
        """
        if self._objective is None:
            raise ModelError(f"model {self.name!r} has no objective")
        if not self._variables:
            raise ModelError(f"model {self.name!r} has no variables")

        metrics = get_registry()
        if self._compiled is None:
            with metrics.span("lp.build"):
                self._compiled = self._compile()
            metrics.inc("lp.compile_cache.misses")
        else:
            metrics.inc("lp.compile_cache.hits")

        backend = get_backend(default_backend_name())
        start = time.perf_counter()
        result = backend.solve(self._compiled)
        elapsed = time.perf_counter() - start
        metrics.observe("lp.solve.seconds", elapsed)
        metrics.inc("lp.solves")
        metrics.gauge("lp.num_variables", self.num_variables)
        metrics.gauge("lp.num_constraints", self.num_constraints)

        status = result.status
        if status is not SolveStatus.OPTIMAL:
            message = result.message
            if status is SolveStatus.INFEASIBLE:
                raise InfeasibleError(
                    f"model {self.name!r} is infeasible: {message}")
            if status is SolveStatus.UNBOUNDED:
                raise UnboundedError(
                    f"model {self.name!r} is unbounded: {message}")
            raise LPError(f"model {self.name!r} failed to solve: {message}")
        # The backend minimizes ``sense * (objective - constant)``.
        return Solution(
            values=np.asarray(result.x, dtype=float),
            objective_value=(float(result.objective) * self._sense
                             + self._objective.constant),
            solve_seconds=elapsed, iterations=result.iterations,
            variables=self._variables)

    def __repr__(self) -> str:
        return (f"Model({self.name!r}, vars={self.num_variables}, "
                f"constraints={self.num_constraints})")
