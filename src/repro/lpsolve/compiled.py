"""The compiled (solver-ready) form of a model.

:class:`CompiledLP` is the sparse ``(c, A_ub, b_ub, A_eq, b_eq,
bounds)`` structure every :class:`~repro.lpsolve.backends.SolverBackend`
consumes, plus the bookkeeping that makes incremental re-solves
possible: a map from each constraint to its compiled row, and for each
:class:`~repro.lpsolve.block.RowBlock` the ``slots`` — the position in
the CSR ``data`` of every entry of the block — so a whole row family
is re-written with one indexed store. The matrices store every term
of every row, explicit zeros included, so each position a block patch
can name exists; backends prune the zeros from what they hand the
solver.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.lpsolve.block import BlockRow, RowBlock
from repro.lpsolve.constraint import Constraint, ConstraintSense
from repro.lpsolve.errors import StructureError


Rows = Tuple[Optional[sparse.csr_matrix], np.ndarray,
             Dict[Constraint, Tuple[int, float]],
             Dict[RowBlock, Tuple[sparse.csr_matrix, np.ndarray]]]


def compile_rows(constraints: Sequence[Constraint], width: int) -> Rows:
    """``(matrix, b, rows, blocks)`` — see :class:`CompiledLP` — with
    one CSR row per constraint, in order. Symbolic rows contribute COO
    triplets term by term, blocks their leads and live entries as whole
    arrays; one sort makes the CSR and tells each block its slots."""
    if not constraints:
        return None, np.zeros(0), {}, {}
    # GE rows are negated into <= form.
    signs = [-1.0 if con.sense is ConstraintSense.GE else 1.0
             for con in constraints]
    owners: Dict[Constraint, Tuple[int, float]] = dict(
        zip(constraints, zip(range(len(constraints)), signs)))
    sign = np.array(signs)
    b = np.empty(len(constraints))
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    #: block -> (ordinals, matrix rows) of its listed rows
    listed: Dict[RowBlock, Tuple[List[int], List[int]]] = {}
    for row, con in enumerate(constraints):
        if isinstance(con, BlockRow):
            ordinals, at = listed.setdefault(con.block, ([], []))
            ordinals.append(con.ordinal)
            at.append(row)
            continue
        b[row] = signs[row] * con.rhs
        terms = con.expr.coeffs
        rows.extend([row] * len(terms))
        cols.extend([var.index for var in terms])
        data.extend([signs[row] * coeff for coeff in terms.values()])
    parts = [(np.asarray(rows, dtype=np.int64),
              np.asarray(cols, dtype=np.int64),
              np.asarray(data, dtype=float))]
    for block, (ordinals, at) in listed.items():
        at = np.asarray(at, dtype=np.int64)
        b[at] = sign[at] * block.rhs[ordinals]
        if block.lead is not None:
            parts.append((at, np.full(len(at), block.lead.index),
                          sign[at]))
    starts = [sum(len(part[2]) for part in parts)]
    for block, (ordinals, at) in listed.items():
        # Every form of a block row (see RowBlock) puts its terms
        # into its matrix as they are.
        row_at = np.zeros(len(block.constants), dtype=np.int64)
        row_at[ordinals] = at
        parts.append((row_at[block.rows[block.live]],
                      block.cols[block.live], block.coeffs[block.live]))
        starts.append(starts[-1] + len(parts[-1][2]))
    rows, cols, data = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(len(b) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(b)), out=indptr[1:])
    matrix = sparse.csr_matrix((data[order], cols[order], indptr),
                               shape=(len(b), width))
    slot = np.empty_like(order)
    slot[order] = np.arange(len(order))
    blocks = {block: (matrix, slot[lo:hi])
              for block, lo, hi in zip(listed, starts, starts[1:])}
    return matrix, b, owners, blocks


class CompiledLP:
    """Sparse matrices plus the patch bookkeeping for one compiled
    model.

    Attributes:
        c: dense objective vector (already sense-normalized so the
           backend always minimizes).
        a_ub / b_ub: ``A_ub x <= b_ub`` rows (GE rows are negated in).
        a_eq / b_eq: ``A_eq x == b_eq`` rows.
        bounds: ``(n, 2)`` float array of per-variable ``lb, ub``
           (``inf`` = unbounded above) — the form ``linprog`` wants,
           so a solve does not convert ``n`` tuples again.
        ub_rows / eq_rows: constraint -> ``(row, sign)`` in row order,
           where ``sign`` is -1 for constraints stated as GE.
        blocks: row block -> ``(matrix, slots)``: its live entries
           sit at ``matrix.data[slots]``.
    """

    __slots__ = ("c", "a_ub", "b_ub", "a_eq", "b_eq", "bounds",
                 "ub_rows", "eq_rows", "blocks")

    def __init__(self, c: np.ndarray, bounds: np.ndarray,
                 ub: Rows, eq: Rows) -> None:
        self.c = c
        self.bounds = bounds
        self.a_ub, self.b_ub, self.ub_rows, ub_blocks = ub
        self.a_eq, self.b_eq, self.eq_rows, eq_blocks = eq
        self.blocks = {**ub_blocks, **eq_blocks}

    @property
    def num_variables(self) -> int:
        return len(self.c)

    # -- in-place patching -------------------------------------------------

    def _locate(self, constraint: Constraint
                ) -> Tuple[sparse.csr_matrix, np.ndarray, int, float]:
        """``(matrix, b, row, sign)`` of a compiled constraint."""
        if constraint in self.ub_rows:
            return (self.a_ub, self.b_ub) + self.ub_rows[constraint]
        if constraint in self.eq_rows:
            return (self.a_eq, self.b_eq) + self.eq_rows[constraint]
        raise StructureError(
            f"constraint {constraint.name!r} is not part of the "
            "compiled model")

    def patch_rhs(self, constraint: Constraint, rhs: float) -> None:
        """Overwrite one row's right-hand side."""
        _, b, row, sign = self._locate(constraint)
        b[row] = sign * rhs

    def patch_block(self, block: RowBlock) -> None:
        """Re-read a block's coefficients."""
        if block in self.blocks:
            matrix, slots = self.blocks[block]
            matrix.data[slots] = block.coeffs[block.live]

    def patch_objective(self, column: int, coeff: float,
                        sense: float) -> None:
        """Overwrite one objective coefficient (``c`` is dense, so any
        column can be patched)."""
        self.c[column] = sense * coeff
