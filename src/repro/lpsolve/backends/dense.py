"""A dependency-light dense simplex backend.

Implements a bounded-variable, two-phase revised simplex on dense
numpy arrays (LAPACK does the factorizations; all pivoting logic is
plain Python). It exists for two reasons:

- a fallback for environments where scipy's compiled HiGHS plugin is
  unavailable or broken — the formulations keep working, just slower;
- an independent cross-check of the default backend: the
  backend-equivalence tests solve the same compiled structure with
  both and compare objectives and constraint satisfaction.

It is intended for the small-to-medium instances the test suite and
controller paths produce; the sweep experiments on the large ISP
topologies should stay on the default backend.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.linalg import LinAlgError, lu_factor, lu_solve

from repro.lpsolve.backends import BackendResult, SolverBackend
from repro.lpsolve.compiled import CompiledLP
from repro.lpsolve.solution import SolveStatus

_PIVOT_TOL = 1e-10
_STALL_LIMIT = 100  # iterations without progress before Bland's rule


class DenseSimplexBackend(SolverBackend):
    """Bounded-variable two-phase simplex on dense arrays."""

    name = "dense"

    def solve(self, compiled: CompiledLP) -> BackendResult:
        solver = _DenseSimplex(compiled)
        return solver.run()


class _DenseSimplex:
    """One solve's worth of state for the dense simplex."""

    def __init__(self, compiled: CompiledLP) -> None:
        self.n = compiled.num_variables
        a_ub = (compiled.a_ub.toarray()
                if compiled.a_ub is not None
                else np.zeros((0, self.n)))
        a_eq = (compiled.a_eq.toarray()
                if compiled.a_eq is not None
                else np.zeros((0, self.n)))
        self.m_ub = a_ub.shape[0]
        self.m_eq = a_eq.shape[0]
        self.m = self.m_ub + self.m_eq
        b_ub = (np.asarray(compiled.b_ub, dtype=float)
                if self.m_ub else np.zeros(0))
        b_eq = (np.asarray(compiled.b_eq, dtype=float)
                if self.m_eq else np.zeros(0))
        self.b = np.concatenate([b_ub, b_eq])

        # Columns: structural | slacks (one per ub row) | artificials.
        slack_block = np.vstack([np.eye(self.m_ub),
                                 np.zeros((self.m_eq, self.m_ub))])
        self.A = np.hstack([np.vstack([a_ub, a_eq]), slack_block])
        self.c_struct = np.asarray(compiled.c, dtype=float)

        self.lb = np.concatenate([compiled.bounds[:, 0],
                                  np.zeros(self.m_ub)])
        self.ub = np.concatenate([compiled.bounds[:, 1],
                                  np.full(self.m_ub, np.inf)])

        self.feas_tol = 1e-8 * (1.0 + float(np.abs(self.b).max())
                                if self.m else 1.0)

    # -- driver ------------------------------------------------------------

    def run(self) -> BackendResult:
        if self.m == 0:
            return self._solve_bounds_only()
        try:
            return self._run_two_phase()
        except LinAlgError:
            return BackendResult(
                status=SolveStatus.ERROR,
                message="dense simplex: singular basis")

    def _solve_bounds_only(self) -> BackendResult:
        """No constraints: each variable sits at its cheapest bound."""
        x = np.zeros(self.n)
        for j in range(self.n):
            cj, lo, hi = self.c_struct[j], self.lb[j], self.ub[j]
            if cj > 0:
                if not np.isfinite(lo):
                    return BackendResult(status=SolveStatus.UNBOUNDED)
                x[j] = lo
            elif cj < 0:
                if not np.isfinite(hi):
                    return BackendResult(status=SolveStatus.UNBOUNDED)
                x[j] = hi
            else:
                x[j] = lo if np.isfinite(lo) else min(hi, 0.0)
        return BackendResult(
            status=SolveStatus.OPTIMAL, x=x,
            objective=float(self.c_struct @ x), iterations=0)

    def _run_two_phase(self) -> BackendResult:
        n_cols = self.A.shape[1]
        # Nonbasic start: every column at its (finite) lower bound.
        x = np.where(np.isfinite(self.lb), self.lb,
                     np.where(np.isfinite(self.ub), self.ub, 0.0))
        at_upper = np.zeros(n_cols, dtype=bool)

        residual = self.b - self.A @ x
        basis = np.empty(self.m, dtype=int)
        art_cols = []
        art_block = []
        for row in range(self.m):
            if row < self.m_ub and residual[row] >= 0.0:
                basis[row] = self.n + row  # slack carries the row
                continue
            sign = 1.0 if residual[row] >= 0.0 else -1.0
            column = np.zeros(self.m)
            column[row] = sign
            art_block.append(column)
            art_cols.append(n_cols + len(art_cols))
            basis[row] = art_cols[-1]

        total_iters = 0
        if art_cols:
            self.A = np.hstack(
                [self.A, np.column_stack(art_block)])
            self.lb = np.concatenate(
                [self.lb, np.zeros(len(art_cols))])
            self.ub = np.concatenate(
                [self.ub, np.full(len(art_cols), np.inf)])
            x = np.concatenate([x, np.zeros(len(art_cols))])
            at_upper = np.concatenate(
                [at_upper, np.zeros(len(art_cols), dtype=bool)])
            phase1_cost = np.zeros(self.A.shape[1])
            phase1_cost[art_cols] = 1.0
            status, x, basis, at_upper, iters = self._iterate(
                phase1_cost, x, basis, at_upper)
            total_iters += iters
            if status is not SolveStatus.OPTIMAL:
                return BackendResult(
                    status=SolveStatus.ERROR,
                    message="dense simplex: phase 1 did not converge")
            if float(x[art_cols].sum()) > self.feas_tol:
                return BackendResult(status=SolveStatus.INFEASIBLE,
                                     iterations=total_iters)
            # Pin artificials at zero for phase 2.
            self.ub[art_cols] = 0.0
            x[art_cols] = 0.0

        cost = np.zeros(self.A.shape[1])
        cost[:self.n] = self.c_struct
        status, x, basis, at_upper, iters = self._iterate(
            cost, x, basis, at_upper)
        total_iters += iters
        if status is not SolveStatus.OPTIMAL:
            return BackendResult(status=status, iterations=total_iters)
        return BackendResult(
            status=SolveStatus.OPTIMAL, x=x[:self.n].copy(),
            objective=float(self.c_struct @ x[:self.n]),
            iterations=total_iters)

    # -- the simplex loop --------------------------------------------------

    def _iterate(self, cost: np.ndarray, x: np.ndarray,
                 basis: np.ndarray, at_upper: np.ndarray
                 ) -> Tuple[SolveStatus, np.ndarray, np.ndarray,
                            np.ndarray, int]:
        A, b, lb, ub = self.A, self.b, self.lb, self.ub
        n_cols = A.shape[1]
        max_iter = max(2000, 50 * (self.m + n_cols))
        cost_scale = 1.0 + float(np.abs(cost).max())
        d_tol = 1e-9 * cost_scale
        bland = False
        stall = 0
        best_obj = np.inf

        is_basic = np.zeros(n_cols, dtype=bool)
        is_basic[basis] = True

        for iteration in range(max_iter):
            lu = lu_factor(A[:, basis])
            x_nb = np.where(is_basic, 0.0, x)
            x_basic = lu_solve(lu, b - A @ x_nb)
            x[basis] = x_basic

            y = lu_solve(lu, cost[basis], trans=1)
            reduced = cost - A.T @ y

            movable = ~is_basic & (ub - lb > _PIVOT_TOL)
            down_ok = movable & at_upper & (reduced > d_tol)
            up_ok = movable & ~at_upper & (reduced < -d_tol)
            candidates = np.nonzero(down_ok | up_ok)[0]
            if candidates.size == 0:
                return (SolveStatus.OPTIMAL, x, basis, at_upper,
                        iteration)
            if bland:
                entering = int(candidates[0])
            else:
                entering = int(
                    candidates[np.abs(reduced[candidates]).argmax()])
            sigma = -1.0 if at_upper[entering] else 1.0

            w = lu_solve(lu, A[:, entering])
            # x_B moves by -sigma * w * t as entering moves sigma * t.
            t_best = ub[entering] - lb[entering]  # bound flip distance
            leaving = -1
            leaving_to_upper = False
            for k in range(self.m):
                delta = -sigma * w[k]
                var = basis[k]
                if delta > _PIVOT_TOL:
                    room = ub[var] - x[var]
                    if not np.isfinite(room):
                        continue
                    ratio = max(room, 0.0) / delta
                    hits_upper = True
                elif delta < -_PIVOT_TOL:
                    ratio = max(x[var] - lb[var], 0.0) / (-delta)
                    hits_upper = False
                else:
                    continue
                if ratio < t_best - 1e-12:
                    t_best = ratio
                    leaving = k
                    leaving_to_upper = hits_upper
            if not np.isfinite(t_best):
                return (SolveStatus.UNBOUNDED, x, basis, at_upper,
                        iteration)

            x[basis] = x_basic - sigma * w * t_best
            if leaving < 0:
                # Entering flips to its other bound; basis unchanged.
                x[entering] = (lb[entering] if at_upper[entering]
                               else ub[entering])
                at_upper[entering] = ~at_upper[entering]
            else:
                out = basis[leaving]
                x[out] = ub[out] if leaving_to_upper else lb[out]
                at_upper[out] = leaving_to_upper
                is_basic[out] = False
                x[entering] = x[entering] + sigma * t_best
                basis[leaving] = entering
                is_basic[entering] = True

            objective = float(cost @ x)
            if objective < best_obj - 1e-12 * cost_scale:
                best_obj = objective
                stall = 0
            else:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
        return SolveStatus.ERROR, x, basis, at_upper, max_iter
